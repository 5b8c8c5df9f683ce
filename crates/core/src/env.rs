//! The `KCORE_TECHNIQUES` environment override, resolved in one place.
//!
//! The variable holds a comma-separated subset of `sampling`, `vgc`,
//! `offline`, or the shorthand `all` (= `sampling,vgc`). CI sets it to
//! force the Sec. 4 techniques on for the whole test suite, so the
//! default-off configuration cannot silently rot. It is parsed once per
//! process, and [`resolve`] adds it to a config at
//! [`crate::Decomposition`]'s `run` and in [`crate::DynamicGraph::new`].
//! A token only ever *enables* a technique with default parameters; a
//! technique the config already sets keeps its parameters. Sampling and
//! offline are dropped for problems whose axes refuse them (the rule
//! [`admits_sampling_and_offline`] shares with the engine's combination
//! guard), so a blanket CI leg still runs every problem.
//!
//! `KCORE_BACKEND` and `KCORE_TRI_KERNEL` keep their own parsers in
//! `kcore-graph` and `kcore-parallel`. `TriangleCtx::build` runs
//! outside [`crate::Decomposition`] too (benches, integration tests)
//! and must honor the kernel override there. The backend override
//! re-encodes the graph before the peel is instantiated for a concrete
//! backend type; resolving it here would put `&dyn GraphBackend` in the
//! peel's inner loop.

use crate::config::{PeelMode, Sampling, Vgc};
use crate::peel::engine::{admits_sampling_and_offline, PeelProblem};
use crate::Config;
use std::sync::OnceLock;

/// The techniques a `KCORE_TECHNIQUES` spec asks for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Spec {
    sampling: bool,
    vgc: bool,
    offline: bool,
}

/// Parses a `KCORE_TECHNIQUES` spec; empty tokens are skipped.
///
/// # Panics
///
/// Panics on unknown tokens — a misspelled CI override should fail
/// loudly, not silently run the baseline.
pub(crate) fn parse(spec: &str) -> Spec {
    let mut parsed = Spec::default();
    for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        match token {
            "sampling" => parsed.sampling = true,
            "vgc" => parsed.vgc = true,
            "offline" => parsed.offline = true,
            "all" => (parsed.sampling, parsed.vgc) = (true, true),
            other => panic!(
                "KCORE_TECHNIQUES: unknown token {other:?} (valid: sampling, vgc, offline, all)"
            ),
        }
    }
    parsed
}

/// `config` plus the process's `KCORE_TECHNIQUES` techniques that
/// `problem`'s axes admit.
pub(crate) fn resolve(config: Config, problem: &impl PeelProblem) -> Config {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    let spec = SPEC
        .get_or_init(|| std::env::var("KCORE_TECHNIQUES").map(|s| parse(&s)).unwrap_or_default());
    apply(config, *spec, problem)
}

/// Enables the techniques `spec` asks for and `problem`'s axes admit,
/// leaving every technique `config` already sets as it is.
pub(crate) fn apply(mut config: Config, spec: Spec, problem: &impl PeelProblem) -> Config {
    let refinable = admits_sampling_and_offline(&problem.round_policy(), &problem.incidence());
    let techniques = &mut config.techniques;
    if spec.sampling && refinable {
        techniques.sampling.get_or_insert_with(Sampling::default);
    }
    if spec.vgc {
        techniques.vgc.get_or_insert_with(Vgc::default);
    }
    if spec.offline && refinable && techniques.mode == PeelMode::Online {
        techniques.mode = PeelMode::Offline;
    }
    config
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::ktruss::KTrussProblem;
    use kcore_graph::{gen, TriangleCtx};

    #[test]
    fn snapshot_axes_keep_offline() {
        // k-truss runs min-bucket rounds over a snapshot incidence, which
        // the axis rule admits: the filter keeps offline (and sampling,
        // which the two-phase step ignores) instead of following a
        // per-problem token list.
        let g = gen::complete(4);
        let ctx = TriangleCtx::build(&g);
        let c =
            apply(Config::default(), parse("sampling,vgc,offline"), &KTrussProblem::new(&g, &ctx));
        assert_eq!(c.techniques.mode, PeelMode::Offline);
        assert!(c.techniques.sampling.is_some());
        assert!(c.techniques.vgc.is_some());
    }
}
