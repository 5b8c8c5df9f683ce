//! The `KCORE_TECHNIQUES` environment override, resolved in one place.
//!
//! The variable holds a comma-separated subset of `sampling` and
//! `offline`. CI sets it to force the opt-in Sec. 4 techniques on for
//! the whole test suite, so sampling and the offline driver cannot
//! silently rot. It is parsed once per process, and [`resolve`] adds it
//! to a config at [`crate::Decomposition`]'s `run` and in
//! [`crate::DynamicGraph::new`]. A token only ever *enables* a
//! technique with default parameters; a technique the config already
//! sets keeps its parameters, and no token can turn a technique off.
//! VGC takes no token: [`Config::default`] already runs it. Both tokens
//! are dropped for problems whose axes refuse them (the rule
//! [`admits_sampling_and_offline`] shares with the engine's combination
//! guard), so a blanket CI leg still runs every problem. k-truss keeps
//! both and ignores them.
//!
//! This is the only environment knob the decompositions read; tracing
//! (`KCORE_TRACE`) is read by `kcore-obs`. The triangle kernels take no
//! override; each pair's kernel follows from its list lengths.

use crate::config::{PeelMode, Sampling};
use crate::peel::engine::{admits_sampling_and_offline, PeelProblem};
use crate::Config;
use std::sync::OnceLock;

/// The techniques a `KCORE_TECHNIQUES` spec asks for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Spec {
    sampling: bool,
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
            "offline" => parsed.offline = true,
            other => panic!("KCORE_TECHNIQUES: unknown token {other:?} (valid: sampling, offline)"),
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
    if spec.offline && refinable && techniques.mode == PeelMode::Online {
        techniques.mode = PeelMode::Offline;
    }
    config
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::ktruss::KTrussProblem;
    use crate::Techniques;
    use kcore_graph::{gen, TriangleCtx};

    #[test]
    fn snapshot_axes_keep_offline() {
        // k-truss runs min-bucket rounds over a snapshot incidence, which
        // the axis rule admits: the filter keeps offline and sampling
        // (the two-phase step ignores both) instead of following a
        // per-problem token list.
        let g = gen::complete(4);
        let ctx = TriangleCtx::build(&g);
        let problem = KTrussProblem::new(&g, &ctx);
        // Start from the plain framework, so every technique below was
        // turned on by a token, one token at a time.
        let plain = Config::with_techniques(Techniques::default());
        let c = apply(plain, parse("offline"), &problem);
        assert_eq!(c.techniques, Techniques::offline());
        let c = apply(plain, parse("sampling"), &problem);
        assert!(c.techniques.sampling.is_some());
        assert_eq!(c.techniques.mode, PeelMode::Online);
    }

    #[test]
    #[should_panic(expected = "unknown token")]
    fn vgc_token_is_gone() {
        // VGC is on in the default config and takes no token.
        let _ = parse("vgc");
    }
}
