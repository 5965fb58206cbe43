//! Loopback tests of the sweep server: the determinism contract (batch
//! results bit-identical to serial `run_grid_layouts` at any worker
//! width), reconnect replay, error handling, cancellation, and drain.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use avr::arch::{DesignKind, LayoutKind, SimPool, SystemConfig};
use avr::server::{metrics_to_json, Client, Json, SweepServer, MAX_LINE_BYTES};
use avr::types::knobs::knobs;
use avr::types::{BackendKind, BenchScale, CellSpec};
use avr::workloads::{all_benchmarks, run_grid_layouts, GridRun};

/// The serial reference: `run_grid_layouts` on one worker, with the
/// backend pinned exact the way the wire layer pins it (`CellSpec::config`
/// defaults to exact so server results never depend on the server's own
/// `AVR_BACKEND` environment).
fn serial_reference(designs: &[DesignKind], layouts: &[LayoutKind]) -> Vec<GridRun> {
    let mut cfg = SystemConfig::tiny();
    cfg.error_model.backend = Some(BackendKind::Exact);
    let suite = all_benchmarks(BenchScale::Tiny);
    run_grid_layouts(&SimPool::new(1), &suite, &cfg, designs, layouts)
}

/// The same cells `run_grid_layouts` enumerates — workload-major,
/// layout-mid, design-minor, layouts intersected with each workload's
/// supported set — as wire specs.
fn grid_cells(designs: &[DesignKind], layouts: &[LayoutKind]) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for w in all_benchmarks(BenchScale::Tiny) {
        for &layout in layouts.iter().filter(|l| w.layouts().contains(l)) {
            for &design in designs {
                let mut cell = CellSpec::new(w.name());
                cell.design = design;
                cell.layout = layout;
                cells.push(cell);
            }
        }
    }
    cells
}

/// Render a serial result the way the server renders it on the wire.
fn reference_line(run: &GridRun) -> String {
    metrics_to_json(&run.metrics).render()
}

#[test]
fn batches_are_bit_identical_to_serial_grid_runs_at_widths_1_and_4() {
    let designs = [DesignKind::Avr];
    let layouts = LayoutKind::ALL;
    let serial = serial_reference(&designs, &layouts);
    let cells = grid_cells(&designs, &layouts);
    assert_eq!(serial.len(), cells.len(), "cell enumeration must match the grid runner");

    for width in [1usize, 4] {
        let server = SweepServer::bind_with("127.0.0.1:0", SimPool::new(width)).unwrap();
        let (addr, handle) = server.spawn();
        let mut client = Client::connect(addr).unwrap();
        let job = client.submit(cells.clone()).unwrap();
        let outcome = client.collect_job(job).unwrap();
        assert_eq!(outcome.completed as usize, cells.len(), "width {width}");
        assert_eq!(outcome.cancelled, 0);
        for (i, run) in serial.iter().enumerate() {
            let event = outcome.results[i]
                .as_ref()
                .unwrap_or_else(|| panic!("width {width}: cell {i} ({}) missing", run.workload));
            assert_eq!(
                event.get("metrics").unwrap().render(),
                reference_line(run),
                "width {width}: cell {i} ({} {:?} {:?}) is not bit-identical",
                run.workload,
                run.design,
                run.layout,
            );
        }
        client.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }
}

#[test]
fn disconnect_mid_batch_then_reconnect_replays_the_full_stream() {
    let designs = [DesignKind::Baseline, DesignKind::Avr];
    let layouts = [LayoutKind::Soa];
    let serial = serial_reference(&designs, &layouts);
    let cells = grid_cells(&designs, &layouts);

    let server = SweepServer::bind_with("127.0.0.1:0", SimPool::new(1)).unwrap();
    let (addr, handle) = server.spawn();
    let job = {
        // Scope drop = abrupt disconnect after the first streamed result.
        let mut client = Client::connect(addr).unwrap();
        let job = client.submit(cells.clone()).unwrap();
        let first = client.next_event().unwrap();
        assert_eq!(first.get("event").and_then(Json::as_str), Some("result"));
        job
    };

    let mut client = Client::connect(addr).unwrap();
    let ack = client.results(job, 0).unwrap();
    assert_eq!(ack.get("cells").and_then(Json::as_u64), Some(cells.len() as u64));
    let outcome = client.collect_job(job).unwrap();
    assert_eq!(outcome.completed as usize, cells.len());
    for (i, run) in serial.iter().enumerate() {
        let event = outcome.results[i].as_ref().unwrap();
        assert_eq!(
            event.get("metrics").unwrap().render(),
            reference_line(run),
            "replayed cell {i} ({}) is not bit-identical",
            run.workload,
        );
    }

    // Resuming from a later cell replays only the tail.
    let from = cells.len() - 3;
    client.results(job, from).unwrap();
    let mut tail = Vec::new();
    loop {
        let event = client.next_event().unwrap();
        match event.get("event").and_then(Json::as_str) {
            Some("result") => tail.push(event.get("cell").and_then(Json::as_u64).unwrap()),
            Some("job_done") => break,
            other => panic!("unexpected event {other:?}"),
        }
    }
    assert_eq!(tail, (from as u64..cells.len() as u64).collect::<Vec<_>>());

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn malformed_and_invalid_requests_get_error_replies_without_wedging() {
    let server = SweepServer::bind_with("127.0.0.1:0", SimPool::new(1)).unwrap();
    let (addr, handle) = server.spawn();

    // Raw socket: drive the wire by hand.
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let send = |reader: &mut BufReader<TcpStream>, line: &str| {
        let mut w = &stream;
        w.write_all(line.as_bytes()).unwrap();
        w.write_all(b"\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        Json::parse(reply.trim()).unwrap()
    };

    for bad in [
        "this is not json",
        "{\"cells\":[]}",
        "{\"cmd\":\"fly\"}",
        "{\"cmd\":\"submit\",\"cells\":[{\"workload\":\"heat\",\"design\":\"warp\"}]}",
        "{\"cmd\":\"submit\",\"cells\":[{\"workload\":\"heat\",\"design\":\"memo\"}]}",
        "{\"cmd\":\"submit\",\"cells\":[{\"workload\":\"heat\",\"design\":\"memo_in\"}]}",
        "{\"cmd\":\"submit\",\"cells\":[{\"workload\":\"warp\"}]}",
        "{\"cmd\":\"submit\",\"cells\":[{\"workload\":\"heat\",\"layout\":\"partitioned\"}]}",
        "{\"cmd\":\"cancel\",\"job\":999}",
        "{\"cmd\":\"results\",\"job\":999}",
        // Out-of-range error thresholds: acked before, they panicked the
        // engine thread when the cell built its codec, and no later job ran.
        "{\"cmd\":\"submit\",\"cells\":[{\"workload\":\"heat\",\"t1\":-1}]}",
        "{\"cmd\":\"submit\",\"cells\":[{\"workload\":\"heat\",\"t1\":1}]}",
        "{\"cmd\":\"submit\",\"cells\":[{\"workload\":\"heat\",\"t1\":2.5}]}",
        "{\"cmd\":\"submit\",\"cells\":[{\"workload\":\"heat\",\"t2\":-0.01}]}",
        "{\"cmd\":\"submit\",\"cells\":[{\"workload\":\"heat\"},{\"workload\":\"fft\",\"t2\":0}]}",
    ] {
        let reply = send(&mut reader, bad);
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false), "{bad}");
        assert!(reply.get("error").is_some(), "{bad}");
    }
    // A threshold error names the field and its allowed range.
    for (cell, expect) in [
        ("{\"workload\":\"heat\",\"t1\":-1}", "t1 must be in (0, 1), got -1"),
        ("{\"workload\":\"heat\",\"t2\":-0.01}", "t2 must be > 0, got -0.01"),
    ] {
        let reply = send(&mut reader, &format!("{{\"cmd\":\"submit\",\"cells\":[{cell}]}}"));
        let error = reply.get("error").unwrap().as_str().unwrap();
        assert!(error.contains(expect), "{error}");
    }
    // The unknown-workload error names the registry.
    let reply = send(&mut reader, "{\"cmd\":\"submit\",\"cells\":[{\"workload\":\"warp\"}]}");
    assert!(reply.get("error").unwrap().as_str().unwrap().contains("heat"));
    // The unknown-design error names the offending label.
    let reply = send(
        &mut reader,
        "{\"cmd\":\"submit\",\"cells\":[{\"workload\":\"heat\",\"design\":\"memo\"}]}",
    );
    assert!(reply.get("error").unwrap().as_str().unwrap().contains("memo"));

    // The connection is still healthy: valid submits go through — including
    // the memoization designs under their real wire labels.
    for cells in [
        "[{\"workload\":\"heat\"}]",
        "[{\"workload\":\"heat\",\"design\":\"memoin\"},{\"workload\":\"heat\",\"design\":\"memoout\"}]",
    ] {
        let n = cells.matches("workload").count() as u64;
        let reply = send(&mut reader, &format!("{{\"cmd\":\"submit\",\"cells\":{cells}}}"));
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true), "{cells}");
        let job = reply.get("job").and_then(Json::as_u64).unwrap();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let event = Json::parse(line.trim()).unwrap();
            if event.get("event").and_then(Json::as_str) == Some("job_done") {
                assert_eq!(event.get("job").and_then(Json::as_u64), Some(job));
                assert_eq!(event.get("completed").and_then(Json::as_u64), Some(n));
                break;
            }
        }
    }

    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn deeply_nested_request_gets_an_error_and_the_server_lives_on() {
    let server = SweepServer::bind_with("127.0.0.1:0", SimPool::new(1)).unwrap();
    let (addr, handle) = server.spawn();
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut send = |line: &str| {
        let mut w = &stream;
        w.write_all(line.as_bytes()).unwrap();
        w.write_all(b"\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        Json::parse(reply.trim()).unwrap()
    };
    // 200 000 `[` on one line used to overflow the session thread's stack
    // and abort the whole process.
    let reply = send(&"[".repeat(200_000));
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    let error = reply.get("error").unwrap().as_str().unwrap();
    assert!(error.contains("nesting") && error.contains("offset"), "{error}");
    // Same connection, same server: still serving.
    let status = send("{\"cmd\":\"status\"}");
    assert_eq!(status.get("ok").and_then(Json::as_bool), Some(true), "{status:?}");
    // And a fresh connection works too.
    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn oversized_and_non_utf8_request_lines_get_errors_and_the_connection_lives_on() {
    let server = SweepServer::bind_with("127.0.0.1:0", SimPool::new(1)).unwrap();
    let (addr, handle) = server.spawn();
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut reply = || {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        Json::parse(line.trim()).unwrap()
    };
    // One byte over the limit, a line that is not UTF-8, then a status
    // request. The server must not keep the long line, and answers each.
    let mut w = &stream;
    w.write_all(&vec![b'x'; MAX_LINE_BYTES + 1]).unwrap();
    w.write_all(b"\n\xff\xfe\n{\"cmd\":\"status\"}\n").unwrap();
    for expect in [MAX_LINE_BYTES.to_string().as_str(), "UTF-8"] {
        let error = reply();
        assert_eq!(error.get("ok").and_then(Json::as_bool), Some(false), "{error:?}");
        let message = error.get("error").unwrap().as_str().unwrap();
        assert!(message.contains(expect), "{message}");
    }
    let status = reply();
    assert_eq!(status.get("ok").and_then(Json::as_bool), Some(true), "{status:?}");
    assert!(status.get("phase").is_some(), "{status:?}");
    // The status records the server process's resolved knob snapshot.
    let snapshot = status.get("knobs").unwrap_or_else(|| panic!("{status:?}"));
    let names = [
        "AVR_NO_SIMD",
        "AVR_NO_BATCHED_WALK",
        "AVR_BACKEND",
        "AVR_THREADS",
        "AVR_SCALE",
        "AVR_BENCH_FAST",
    ];
    for name in names {
        assert!(snapshot.get(name).and_then(Json::as_str).is_some(), "{name}: {snapshot:?}");
    }
    let backend = snapshot.get("AVR_BACKEND").and_then(Json::as_str);
    assert_eq!(backend, Some(knobs().backend.label()), "{snapshot:?}");
    // A submit on the same connection still runs to completion.
    w.write_all(b"{\"cmd\":\"submit\",\"cells\":[{\"workload\":\"heat\"}]}\n").unwrap();
    let ack = reply();
    let job = ack.get("job").and_then(Json::as_u64).unwrap_or_else(|| panic!("{ack:?}"));
    loop {
        let event = reply();
        if event.get("event").and_then(Json::as_str) == Some("job_done") {
            assert_eq!(event.get("job").and_then(Json::as_u64), Some(job));
            assert_eq!(event.get("completed").and_then(Json::as_u64), Some(1));
            break;
        }
    }
    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn cancel_mid_batch_keeps_finished_cells_and_skips_the_rest() {
    // Width 1 ⇒ cells execute one at a time, so a cancel sent right after
    // the first result leaves most of the batch unstarted.
    let server = SweepServer::bind_with("127.0.0.1:0", SimPool::new(1)).unwrap();
    let (addr, handle) = server.spawn();
    let mut client = Client::connect(addr).unwrap();

    let mut cells = Vec::new();
    for name in ["fft", "lattice", "lbm", "wrf"] {
        for design in DesignKind::ALL {
            let mut cell = CellSpec::new(name);
            cell.design = design;
            cells.push(cell);
        }
    }
    let n = cells.len();
    let job = client.submit(cells).unwrap();
    let first = client.next_event().unwrap();
    assert_eq!(first.get("event").and_then(Json::as_str), Some("result"));
    client.cancel(job).unwrap();
    let outcome = client.collect_job(job).unwrap();
    assert_eq!(outcome.completed + outcome.cancelled, n as u64, "every cell accounted for");
    assert!(outcome.completed >= 1, "the streamed cell must be kept");
    assert!(outcome.cancelled >= 1, "cancel right after the first of {n} cells must skip some");
    // A fresh replay serves exactly the kept cells (the first result was
    // consumed pre-cancel above, so count via re-subscription).
    client.results(job, 0).unwrap();
    let mut kept = 0u64;
    loop {
        let event = client.next_event().unwrap();
        match event.get("event").and_then(Json::as_str) {
            Some("result") => kept += 1,
            Some("job_done") => break,
            other => panic!("unexpected event {other:?}"),
        }
    }
    assert_eq!(kept, outcome.completed, "kept results match the completed count");

    // The job stays queryable after cancellation.
    let status = client.status().unwrap();
    let jobs = status.get("jobs").and_then(Json::as_arr).unwrap();
    let entry = jobs
        .iter()
        .find(|j| j.get("job").and_then(Json::as_u64) == Some(job))
        .expect("cancelled job still listed");
    assert_eq!(entry.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(entry.get("cancelled").and_then(Json::as_u64), Some(outcome.cancelled));

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn drain_finishes_queued_work_then_refuses_submissions_and_exits() {
    let server = SweepServer::bind_with("127.0.0.1:0", SimPool::new(2)).unwrap();
    let (addr, handle) = server.spawn();
    let mut submitter = Client::connect(addr).unwrap();

    let mut cells = Vec::new();
    for design in DesignKind::ALL {
        let mut cell = CellSpec::new("heat");
        cell.design = design;
        cells.push(cell);
    }
    let job = submitter.submit(cells.clone()).unwrap();

    // Drain from a second connection while the batch is in flight.
    let mut controller = Client::connect(addr).unwrap();
    let reply = controller.drain().unwrap();
    assert_eq!(reply.get("phase").and_then(Json::as_str), Some("draining"));
    let err = controller.submit(cells).unwrap_err();
    assert!(err.to_string().contains("draining"), "{err}");
    drop(controller);

    // The in-flight job still completes in full on the submitter's stream.
    let outcome = submitter.collect_job(job).unwrap();
    assert_eq!(outcome.completed, DesignKind::ALL.len() as u64);
    assert_eq!(outcome.cancelled, 0);
    drop(submitter);

    // The server exits once the queue is dry; new connections are refused.
    handle.join().unwrap().unwrap();
    for _ in 0..50 {
        if TcpStream::connect(addr).is_err() {
            return;
        }
        thread::sleep(Duration::from_millis(20));
    }
    panic!("listener still accepting after drain");
}

#[test]
fn golden_cache_amortizes_repeated_submissions() {
    let server = SweepServer::bind_with("127.0.0.1:0", SimPool::new(1)).unwrap();
    let (addr, handle) = server.spawn();
    let mut client = Client::connect(addr).unwrap();

    let batch = || {
        DesignKind::ALL
            .into_iter()
            .map(|d| {
                let mut c = CellSpec::new("kmeans");
                c.design = d;
                c
            })
            .collect::<Vec<_>>()
    };
    let job = client.submit(batch()).unwrap();
    client.collect_job(job).unwrap();
    let hits_before = golden_hits(&client.status().unwrap());
    let job = client.submit(batch()).unwrap();
    let outcome = client.collect_job(job).unwrap();
    let n = DesignKind::ALL.len() as u64;
    assert_eq!(outcome.completed, n);
    let hits_after = golden_hits(&client.status().unwrap());
    assert!(
        hits_after >= hits_before + n,
        "resubmitting {n} cells must hit the golden cache {n} more times ({hits_before} -> {hits_after})"
    );

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

fn golden_hits(status: &Json) -> u64 {
    status.get("golden").unwrap().get("hits").and_then(Json::as_u64).unwrap()
}
