//! Per-crate policy tiers: which lints apply where, and at what severity.
//!
//! The grading is deliberately asymmetric. The crates on the simulator's
//! charged paths and the distributed runtime carry the repo's determinism
//! and liveness guarantees, so they get the strictest grades; library crates
//! get warnings; the experiment binaries are CLI tools whose error story
//! *is* panicking, so panic-safety lints don't apply there at all.

use crate::diag::{Code, Severity};

/// Policy tier a file is analyzed under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// The runtime core: `fs-net`, `fs-core`, `fs-sim`, `fs-exec`,
    /// `fs-scale`. Panics here kill courses; nondeterminism here breaks
    /// bit-identical replay.
    Runtime,
    /// Everything algorithmic: tensors, data, codecs, scenario crates.
    Library,
    /// Experiment binaries, examples, and the facade crate.
    Bench,
}

/// Maps a workspace crate (by package name) to its tier.
pub fn tier_for_crate(name: &str) -> Tier {
    match name {
        "fs-net" | "fs-core" | "fs-sim" | "fs-exec" | "fs-scale" | "fs-topo" => Tier::Runtime,
        "fs-bench" | "fedscope" => Tier::Bench,
        _ => Tier::Library,
    }
}

/// Whether a crate's code runs on sim-charged paths, where wall-clock reads
/// would diverge virtual time from reality (`FSA002`).
pub fn charged_crate(name: &str) -> bool {
    matches!(
        name,
        "fs-core" | "fs-sim" | "fs-exec" | "fs-scale" | "fs-topo"
    )
}

/// Grades a candidate finding: `None` means the lint does not apply in this
/// context, `Some(sev)` is the severity it carries.
pub fn grade(code: Code, tier: Tier, charged: bool, in_test: bool) -> Option<Severity> {
    match code {
        // Ambient RNG is wrong everywhere: in tests it makes coverage
        // flaky (still a Warning), elsewhere it breaks seeded replay.
        Code::AmbientRng => Some(if in_test {
            Severity::Warning
        } else {
            Severity::Error
        }),
        // Wall-clock only matters where time is virtual; tests measuring
        // real deadlines are fine.
        Code::WallClock => (charged && !in_test).then_some(Severity::Error),
        Code::UnorderedContainer => {
            (tier == Tier::Runtime && !in_test).then_some(Severity::Warning)
        }
        Code::FloatReduce => (tier == Tier::Runtime && !in_test).then_some(Severity::Warning),
        Code::Unwrap => match (tier, in_test) {
            (_, true) | (Tier::Bench, _) => None,
            (Tier::Runtime, false) => Some(Severity::Error),
            (Tier::Library, false) => Some(Severity::Warning),
        },
        Code::Expect => match (tier, in_test) {
            (_, true) | (Tier::Bench, _) => None,
            (Tier::Runtime, false) => Some(Severity::Warning),
            (Tier::Library, false) => Some(Severity::Note),
        },
        Code::PanicMacro => match (tier, in_test) {
            (_, true) | (Tier::Bench, _) => None,
            (Tier::Runtime, false) => Some(Severity::Warning),
            (Tier::Library, false) => Some(Severity::Note),
        },
        Code::SliceIndex => (tier == Tier::Runtime && !in_test).then_some(Severity::Note),
        Code::NestedLock | Code::GuardAcrossChannel => (!in_test).then_some(Severity::Warning),
        // CLI binaries and tests may open throwaway sockets; a transport in
        // a runtime or library crate must go through fs-net's TCP module.
        Code::RawSocket => (tier != Tier::Bench && !in_test).then_some(Severity::Warning),
        // Pragma hygiene always gates: a stale suppression is debt.
        Code::PragmaMissingReason | Code::UnusedPragma | Code::UnknownPragmaCode => {
            Some(Severity::Warning)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiers_cover_the_workspace() {
        assert_eq!(tier_for_crate("fs-net"), Tier::Runtime);
        assert_eq!(tier_for_crate("fs-scale"), Tier::Runtime);
        assert_eq!(tier_for_crate("fs-tensor"), Tier::Library);
        assert_eq!(tier_for_crate("fs-analyze"), Tier::Library);
        assert_eq!(tier_for_crate("fs-bench"), Tier::Bench);
        assert_eq!(tier_for_crate("fedscope"), Tier::Bench);
        assert!(charged_crate("fs-sim"));
        assert!(
            !charged_crate("fs-net"),
            "sockets legitimately read wall time"
        );
    }

    #[test]
    fn grading_is_tier_asymmetric() {
        assert_eq!(
            grade(Code::Unwrap, Tier::Runtime, false, false),
            Some(Severity::Error)
        );
        assert_eq!(
            grade(Code::Unwrap, Tier::Library, false, false),
            Some(Severity::Warning)
        );
        assert_eq!(grade(Code::Unwrap, Tier::Bench, false, false), None);
        assert_eq!(grade(Code::Unwrap, Tier::Runtime, false, true), None);
        assert_eq!(
            grade(Code::AmbientRng, Tier::Bench, false, false),
            Some(Severity::Error),
            "exp binaries must stay seeded too"
        );
        assert_eq!(
            grade(Code::AmbientRng, Tier::Runtime, false, true),
            Some(Severity::Warning)
        );
        assert_eq!(grade(Code::WallClock, Tier::Runtime, false, false), None);
        assert_eq!(
            grade(Code::WallClock, Tier::Runtime, true, false),
            Some(Severity::Error)
        );
    }
}
