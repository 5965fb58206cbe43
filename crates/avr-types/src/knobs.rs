//! The `AVR_*` environment knobs, resolved once per process.
//!
//! Each knob selects an alternate implementation that must give the same
//! results (the CI legs run the whole suite under each), or sizes a run.
//! This module is the one place that reads them:
//!
//! | knob                  | kind  | default          | effect                                   |
//! |-----------------------|-------|------------------|------------------------------------------|
//! | `AVR_NO_SIMD`         | flag  | off              | the codec runs its portable scalar arm   |
//! | `AVR_NO_BATCHED_WALK` | flag  | off              | `System::new` takes the per-word walk    |
//! | `AVR_BACKEND`         | label | `exact`          | device of every unpinned `System`        |
//! | `AVR_THREADS`         | count | host parallelism | width of every default `SimPool`         |
//! | `AVR_SCALE`           | label | `tiny`           | problem size of the `figures` binaries   |
//! | `AVR_BENCH_FAST`      | flag  | off              | `bench_codec` shrinks its measurement    |
//!
//! One rule per kind:
//!
//! * a **flag** is on when its value is non-empty and not `0`;
//! * a **label** is one of its type's `from_label` spellings
//!   (`BackendKind`, `BenchScale`);
//! * a **count** is a positive integer;
//! * labels and counts ignore surrounding whitespace, and an empty value
//!   means the default. Any other value warns and takes the default, as
//!   does a value that is not UTF-8;
//! * any other `AVR_*` name warns and lists the known ones.
//!
//! [`Knobs::resolve`] is the pure parser; [`knobs`] applies it to the
//! process environment the first time it is called, prints its warnings
//! on stderr, and returns the same snapshot from then on.

use crate::config::{BackendKind, BenchScale};
use std::ffi::OsStr;
use std::sync::OnceLock;

/// The resolved value of every `AVR_*` knob (see the module table).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Knobs {
    /// `AVR_NO_SIMD`: dispatch the codec to its scalar arm.
    pub no_simd: bool,
    /// `AVR_NO_BATCHED_WALK`: construct systems on the per-word walk.
    pub no_batched_walk: bool,
    /// `AVR_BACKEND`: the device of a `System` whose config pins none.
    pub backend: BackendKind,
    /// `AVR_THREADS`: the width of a default `SimPool`.
    pub threads: usize,
    /// `AVR_SCALE`: the scale the figure binaries run at.
    pub scale: BenchScale,
    /// `AVR_BENCH_FAST`: shrink `bench_codec`'s measurement.
    pub bench_fast: bool,
}

impl Knobs {
    /// Resolve `(name, value)` pairs, such as `std::env::vars_os()`, into
    /// knobs. Names without the `AVR_` prefix are ignored. Returns the
    /// knobs and one warning per value that fell back to its default and
    /// per unknown `AVR_*` name.
    pub fn resolve<K, V>(pairs: impl IntoIterator<Item = (K, V)>) -> (Knobs, Vec<String>)
    where
        K: AsRef<OsStr>,
        V: AsRef<OsStr>,
    {
        let mut k = Knobs {
            no_simd: false,
            no_batched_walk: false,
            backend: BackendKind::Exact,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            scale: BenchScale::Tiny,
            bench_fast: false,
        };
        let mut warnings = Vec::new();
        for (name, value) in pairs {
            let (name, value) = (name.as_ref().to_string_lossy(), value.as_ref());
            if !name.starts_with("AVR_") {
                continue;
            }
            let text = value.to_str();
            // `Err` says what the knob accepts; the knob keeps its default.
            let outcome = match &*name {
                "AVR_NO_SIMD" => flag(&mut k.no_simd, text),
                "AVR_NO_BATCHED_WALK" => flag(&mut k.no_batched_walk, text),
                "AVR_BENCH_FAST" => flag(&mut k.bench_fast, text),
                "AVR_BACKEND" => parsed(&mut k.backend, text, BackendKind::from_label)
                    .map_err(|()| one_of(&BackendKind::ALL.map(|b| b.label()))),
                "AVR_SCALE" => parsed(&mut k.scale, text, BenchScale::from_label)
                    .map_err(|()| one_of(&BenchScale::ALL.map(|s| s.label()))),
                "AVR_THREADS" => {
                    parsed(&mut k.threads, text, |v| v.parse().ok().filter(|&n| n > 0))
                        .map_err(|()| "is not a positive integer".to_string())
                }
                _ => {
                    let known = k.entries().map(|(n, _)| n).join(", ");
                    warnings
                        .push(format!("{name} is not a known knob (known: {known}); ignoring it"));
                    continue;
                }
            };
            if let Err(why) = outcome {
                let (_, kept) =
                    k.entries().into_iter().find(|(n, _)| *n == name).expect("a listed knob");
                warnings.push(format!("{name}={value:?} {why}; using {kept}"));
            }
        }
        (k, warnings)
    }

    /// Every knob's name and value, in the order of the module table,
    /// spelled so that setting the pairs in an environment resolves to
    /// these knobs again (flags as `0`/`1`).
    pub fn entries(&self) -> [(&'static str, String); 6] {
        let flag = |on: bool| if on { "1" } else { "0" }.to_string();
        [
            ("AVR_NO_SIMD", flag(self.no_simd)),
            ("AVR_NO_BATCHED_WALK", flag(self.no_batched_walk)),
            ("AVR_BACKEND", self.backend.label().to_string()),
            ("AVR_THREADS", self.threads.to_string()),
            ("AVR_SCALE", self.scale.label().to_string()),
            ("AVR_BENCH_FAST", flag(self.bench_fast)),
        ]
    }
}

/// The flag rule: on when the value is non-empty and not `0`.
fn flag(slot: &mut bool, text: Option<&str>) -> Result<(), String> {
    *slot = text.map(|v| !v.is_empty() && v != "0").ok_or("is not UTF-8")?;
    Ok(())
}

/// The rule labels and counts share: surrounding whitespace is ignored,
/// an empty value keeps the default, and `parse` reads the rest. A value
/// `parse` rejects, or one that is not UTF-8, is an `Err`.
fn parsed<T>(
    slot: &mut T,
    text: Option<&str>,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<(), ()> {
    let v = text.ok_or(())?.trim();
    if !v.is_empty() {
        *slot = parse(v).ok_or(())?;
    }
    Ok(())
}

/// The warning for a label outside `labels`.
fn one_of(labels: &[&str]) -> String {
    format!("is not one of {}", labels.join("|"))
}

/// The process's knobs: [`Knobs::resolve`] over the environment on the
/// first call, whose warnings go to stderr once; later calls return the
/// same snapshot, so setting a variable after the first call has no
/// effect.
pub fn knobs() -> &'static Knobs {
    static KNOBS: OnceLock<Knobs> = OnceLock::new();
    KNOBS.get_or_init(|| {
        let (knobs, warnings) = Knobs::resolve(std::env::vars_os());
        for w in warnings {
            eprintln!("avr: {w}");
        }
        knobs
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }

    fn resolve(pairs: &[(&str, &str)]) -> (Knobs, Vec<String>) {
        Knobs::resolve(pairs.iter().copied())
    }

    fn defaults() -> Knobs {
        resolve(&[]).0
    }

    fn names() -> [&'static str; 6] {
        defaults().entries().map(|(name, _)| name)
    }

    #[test]
    fn nothing_set_resolves_to_the_defaults_without_warnings() {
        let (k, warnings) = resolve(&[]);
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(
            k,
            Knobs {
                no_simd: false,
                no_batched_walk: false,
                backend: BackendKind::Exact,
                threads: host(),
                scale: BenchScale::Tiny,
                bench_fast: false,
            }
        );
    }

    #[test]
    fn flags_are_on_when_non_empty_and_not_zero() {
        type Field = fn(&Knobs) -> bool;
        let flags: [(&str, Field); 3] = [
            ("AVR_NO_SIMD", |k| k.no_simd),
            ("AVR_NO_BATCHED_WALK", |k| k.no_batched_walk),
            ("AVR_BENCH_FAST", |k| k.bench_fast),
        ];
        for (name, field) in flags {
            assert!(!field(&defaults()), "{name} unset");
            for (value, on) in [("", false), ("0", false), ("1", true), ("yes", true)] {
                let (k, warnings) = resolve(&[(name, value)]);
                assert_eq!(field(&k), on, "{name}={value:?}");
                assert!(warnings.is_empty(), "{name}={value:?}: {warnings:?}");
                // A flag sets only its own field.
                let mut only = k.clone();
                only.no_simd = false;
                only.no_batched_walk = false;
                only.bench_fast = false;
                assert_eq!(only, defaults(), "{name}={value:?}");
            }
        }
    }

    #[test]
    fn backend_is_a_label() {
        for (value, want, warns) in [
            ("exact", BackendKind::Exact, false),
            ("relaxed", BackendKind::RelaxedDram, false),
            ("mram", BackendKind::ApproxMram, false),
            (" relaxed ", BackendKind::RelaxedDram, false),
            ("", BackendKind::Exact, false),
            ("0", BackendKind::Exact, true),
            ("RELAXED", BackendKind::Exact, true),
        ] {
            let (k, warnings) = resolve(&[("AVR_BACKEND", value)]);
            assert_eq!(k.backend, want, "{value:?}");
            assert_eq!(warnings.len(), warns as usize, "{value:?}: {warnings:?}");
            if warns {
                assert!(warnings[0].contains("exact|relaxed|mram"), "{warnings:?}");
            }
        }
    }

    #[test]
    fn scale_is_a_label() {
        for (value, want, warns) in [
            ("tiny", BenchScale::Tiny, false),
            ("bench", BenchScale::Bench, false),
            ("", BenchScale::Tiny, false),
            ("Bench", BenchScale::Tiny, true),
        ] {
            let (k, warnings) = resolve(&[("AVR_SCALE", value)]);
            assert_eq!(k.scale, want, "{value:?}");
            assert_eq!(warnings.len(), warns as usize, "{value:?}: {warnings:?}");
        }
    }

    #[test]
    fn threads_is_a_positive_integer() {
        for (value, want) in [("1", 1), ("16", 16), (" 4 ", 4)] {
            let (k, warnings) = resolve(&[("AVR_THREADS", value)]);
            assert_eq!(k.threads, want, "{value:?}");
            assert!(warnings.is_empty(), "{value:?}: {warnings:?}");
        }
        // Empty means the default, silently.
        for empty in ["", "  "] {
            let (k, warnings) = resolve(&[("AVR_THREADS", empty)]);
            assert_eq!(k.threads, host(), "{empty:?}");
            assert!(warnings.is_empty(), "{empty:?}: {warnings:?}");
        }
        // Anything else warns and takes the default.
        for bad in ["0", "four", "-2", "1.5", "0x8", "18446744073709551616"] {
            let (k, warnings) = resolve(&[("AVR_THREADS", bad)]);
            assert_eq!(k.threads, host(), "{bad:?}");
            assert_eq!(warnings.len(), 1, "{bad:?}: {warnings:?}");
            assert!(warnings[0].contains("positive integer"), "{warnings:?}");
        }
    }

    #[test]
    fn unknown_avr_names_warn_and_other_names_are_ignored() {
        for name in ["AVR_NO_SMID", "AVR_SUMMARY_THREADS", "AVR_SERVER_THREADS"] {
            let (k, warnings) = resolve(&[(name, "1")]);
            assert_eq!(k, defaults(), "{name}");
            assert_eq!(warnings.len(), 1, "{name}: {warnings:?}");
            assert!(warnings[0].starts_with(name), "{warnings:?}");
            for known in names() {
                assert!(warnings[0].contains(known), "{warnings:?} lists {known}");
            }
        }
        let (k, warnings) = resolve(&[("PATH", "/bin"), ("NO_SIMD", "1"), ("avr_threads", "3")]);
        assert_eq!(k, defaults());
        assert!(warnings.is_empty(), "{warnings:?}");
    }

    #[cfg(unix)]
    #[test]
    fn a_non_utf8_value_warns_and_takes_the_default() {
        use std::ffi::OsString;
        use std::os::unix::ffi::OsStringExt;
        for name in names() {
            let value = OsString::from_vec(vec![b'1', 0xFF]);
            let (k, warnings) = Knobs::resolve([(OsString::from(name), value)]);
            assert_eq!(k, defaults(), "{name}");
            assert_eq!(warnings.len(), 1, "{name}: {warnings:?}");
            assert!(warnings[0].starts_with(name), "{warnings:?}");
        }
    }

    #[test]
    fn entries_resolve_back_to_the_same_knobs() {
        let (k, _) = resolve(&[
            ("AVR_NO_SIMD", "1"),
            ("AVR_BACKEND", "mram"),
            ("AVR_THREADS", "3"),
            ("AVR_SCALE", "bench"),
            ("AVR_BENCH_FAST", "yes"),
        ]);
        let entries = k.entries();
        // Every listed name is a knob `resolve` knows.
        for name in names() {
            assert!(resolve(&[(name, "")]).1.is_empty(), "{name}");
        }
        let (again, warnings) = Knobs::resolve(entries.iter().map(|(n, v)| (n, v)));
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(again, k);
        let (again, _) = Knobs::resolve(defaults().entries().iter().map(|(n, v)| (n, v)));
        assert_eq!(again, defaults());
    }
}
