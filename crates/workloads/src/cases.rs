//! A small seeded case runner for property tests.
//!
//! A property runs a fixed number of cases.  Case `i` of the property
//! `name` draws every input from `Mt64::new(seed(name, i))`, so a case is
//! the same on every run and every machine.  A property fails by panicking
//! (`assert!`, `assert_eq!`, or a panic inside the code under test); the
//! runner catches that and panics again with the property's name, the case
//! and its seed.  To re-run that one case, call the property's body on
//! `Mt64::new(seed)` from a scratch test.
//!
//! [`check_ops`] is for a property of an operation sequence that it
//! replays from a fresh start.  On a failure it also reports the shortest
//! failing prefix of the sequence, found by bisection.

use std::any::Any;
use std::fmt::Debug;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::mt64::{Mt64, SplitMix64};

/// The seed of case `case` of the property `name`: FNV-1a over the name,
/// then the case through splitmix64.
pub fn seed(name: &str, case: u32) -> u64 {
    let name = name.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    });
    SplitMix64::new(name ^ u64::from(case)).next_u64()
}

/// A uniform draw from the non-empty `range`.
pub fn draw(rng: &mut Mt64, range: Range<u64>) -> u64 {
    range.start + rng.next_below(range.end - range.start)
}

/// Run `property` on `cases` cases of the property `name`.
///
/// # Panics
/// At the first case that panics, naming the property, the case and the
/// seed.
pub fn check(name: &str, cases: u32, mut property: impl FnMut(&mut Mt64)) {
    for case in 0..cases {
        let seed = seed(name, case);
        if let Some(why) = failure(|| property(&mut Mt64::new(seed))) {
            panic!("{name}: case {case} of {cases} failed, seed {seed:#x}: {why}");
        }
    }
}

/// Run `cases` cases of the property `name` over an operation sequence:
/// `generate` draws the sequence and `replay` runs it from a fresh start.
///
/// # Panics
/// At the first case whose sequence fails, naming the property, the case,
/// the seed and the shortest failing prefix ([`shortest_failing_prefix`]).
pub fn check_ops<T: Debug>(
    name: &str,
    cases: u32,
    mut generate: impl FnMut(&mut Mt64) -> Vec<T>,
    mut replay: impl FnMut(&[T]),
) {
    for case in 0..cases {
        let seed = seed(name, case);
        let ops = generate(&mut Mt64::new(seed));
        if failure(|| replay(&ops)).is_some() {
            let n = shortest_failing_prefix(&ops, &mut replay);
            let why = failure(|| replay(&ops[..n])).unwrap_or_default();
            panic!(
                "{name}: case {case} of {cases} failed, seed {seed:#x}; \
                 shortest failing prefix, {n} of {} ops: {:?}: {why}",
                ops.len(),
                &ops[..n]
            );
        }
    }
}

/// The length of the shortest prefix of `ops` whose replay fails, given
/// that the whole of `ops` fails.
///
/// Replaying a prefix is deterministic, so the bisection needs only that a
/// failure, once it shows, stays in every longer prefix.  A wrong answer to
/// one operation does; so does a lost or invented element that the final
/// sweep of a model check catches, unless a later operation happens to
/// repair it (then the prefix found still fails, but may not be the
/// shortest).
pub fn shortest_failing_prefix<T>(ops: &[T], mut replay: impl FnMut(&[T])) -> usize {
    let (mut passes_below, mut fails) = (0, ops.len());
    while passes_below < fails {
        let mid = passes_below + (fails - passes_below) / 2;
        if failure(|| replay(&ops[..mid])).is_some() {
            fails = mid;
        } else {
            passes_below = mid + 1;
        }
    }
    fails
}

/// The message of the panic `f` raised, if it raised one.
fn failure(f: impl FnOnce()) -> Option<String> {
    let panic: Box<dyn Any + Send> = catch_unwind(AssertUnwindSafe(f)).err()?;
    Some(match panic.downcast::<String>() {
        Ok(message) => *message,
        Err(panic) => panic
            .downcast_ref::<&str>()
            .map_or("a panic without a message", |m| m)
            .to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(name: &str) -> Vec<u64> {
        let mut seen = Vec::new();
        check(name, 8, |rng| seen.push(rng.next_u64()));
        seen
    }

    #[test]
    fn a_name_and_a_case_give_the_same_inputs() {
        assert_eq!(draws("same_inputs"), draws("same_inputs"));
        assert_eq!(seed("same_inputs", 3), seed("same_inputs", 3));
        let mut cases = draws("same_inputs");
        cases.sort_unstable();
        cases.dedup();
        assert_eq!(cases.len(), 8, "every case draws its own inputs");
        assert_ne!(draws("same_inputs"), draws("other_inputs"));
    }

    #[test]
    fn the_report_names_the_property_the_case_and_the_seed() {
        let mut case = 0;
        let report = failure(|| {
            check("reported_property", 10, |_| {
                case += 1;
                assert!(case <= 3, "the fourth case fails");
            })
        })
        .expect("case 3 fails");
        let seed = seed("reported_property", 3);
        assert!(
            report.starts_with(&format!(
                "reported_property: case 3 of 10 failed, seed {seed:#x}"
            )),
            "{report}"
        );
        assert!(report.ends_with("the fourth case fails"), "{report}");
    }

    /// A set that reports every insert of `lost` as done, but drops it.
    fn replay_lossy_set(ops: &[u64], lost: u64) {
        let mut set = std::collections::HashSet::new();
        for &key in ops {
            if key != lost {
                set.insert(key);
            }
        }
        for key in ops {
            assert!(set.contains(key), "the final sweep misses {key}");
        }
    }

    #[test]
    fn bisection_finds_the_shortest_failing_prefix() {
        let ops: Vec<u64> = (0..100).collect();
        // A wrong answer at the operation with index 37.
        let wrong_answer = |prefix: &[u64]| {
            for &op in prefix {
                assert_ne!(op, 37, "a wrong answer");
            }
        };
        assert_eq!(shortest_failing_prefix(&ops, wrong_answer), 38);
        // A loss at index 61 that only the final sweep sees.
        assert_eq!(
            shortest_failing_prefix(&ops, |prefix| replay_lossy_set(prefix, 61)),
            62
        );
        // Every prefix fails, the empty one too.
        assert_eq!(shortest_failing_prefix(&ops, |_| panic!("always")), 0);
    }

    #[test]
    fn a_failing_sequence_is_reported_by_its_shortest_prefix() {
        let report = failure(|| {
            check_ops(
                "lossy_set",
                4,
                |rng| (0..50).map(|_| rng.next_below(1_000)).collect(),
                |ops| replay_lossy_set(ops, ops.get(20).copied().unwrap_or(u64::MAX)),
            )
        })
        .expect("the lossy set fails");
        let seed = seed("lossy_set", 0);
        assert!(
            report.starts_with(&format!("lossy_set: case 0 of 4 failed, seed {seed:#x}")),
            "{report}"
        );
        assert!(
            report.contains("shortest failing prefix, 21 of 50 ops"),
            "{report}"
        );
        assert!(report.contains("the final sweep misses"), "{report}");
    }
}
