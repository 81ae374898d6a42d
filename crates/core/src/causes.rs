//! The exhaustive table of configuration-error cause codes.
//!
//! `ConfigError` (in `fedsched-fl`) exposes a machine-readable
//! `cause_code()` per variant. Those codes are a published contract:
//! CLI tools grep for them, and the serve crate returns them verbatim in
//! structured HTTP error bodies, so the same string must identify the same
//! failure in-process and over the wire. Before this table the literals
//! were scattered across `build_*` methods; they now live here, in one
//! `pub const` per code, and `ConfigError::cause_code()` references these
//! constants so a drifting string is a compile error, not a silent wire
//! break.
//!
//! Stability note: the codes are **snake_case**, not kebab-case. They were
//! published that way in the first builder release with a "never reworded"
//! guarantee (see the `display_and_cause_codes_are_stable` pin test in
//! `fedsched-fl`), so the convention is frozen — switching to kebab-case
//! now would break every consumer matching on them. The format test below
//! asserts snake_case for exactly that reason.

/// Cohort size of zero.
pub const ZERO_COHORT_SIZE: &str = "zero_cohort_size";
/// Thread count of zero.
pub const ZERO_THREADS: &str = "zero_threads";
/// A knob was set after the simulation already ran rounds. Retired: no
/// `ConfigError` produces it since simulators lost their post-build
/// setters, but the published table only grows.
pub const CONFIGURED_AFTER_RUN: &str = "configured_after_run";
/// An empty shard assignment.
pub const EMPTY_ASSIGNMENT: &str = "empty_assignment";
/// A non-positive or non-finite round deadline.
pub const INVALID_DEADLINE: &str = "invalid_deadline";
/// A rescue state-of-charge floor outside `[0, 1]`.
pub const INVALID_SOC_FLOOR: &str = "invalid_soc_floor";
/// A retry policy that fails `RetryPolicy::check`.
pub const INVALID_RETRY: &str = "invalid_retry";
/// Buffered-async options with a zero buffer or non-positive eta.
pub const INVALID_ASYNC: &str = "invalid_async";
/// A knob the selected build target does not support.
pub const UNSUPPORTED_OPTION: &str = "unsupported_option";
/// A schedule whose arity does not match the device count.
pub const ARITY_MISMATCH: &str = "arity_mismatch";
/// A reschedule interval of zero rounds.
pub const ZERO_RESCHEDULE_INTERVAL: &str = "zero_reschedule_interval";
/// An aggregator that fails `AggregatorKind::validate`.
pub const INVALID_AGGREGATOR: &str = "invalid_aggregator";
/// An adversary config with out-of-range fractions or probabilities.
pub const INVALID_ADVERSARY: &str = "invalid_adversary";
/// A churn process with negative rates or a non-positive horizon.
pub const INVALID_CHURN: &str = "invalid_churn";
/// A hierarchical topology with zero edges or a bad edge link.
pub const INVALID_TOPOLOGY: &str = "invalid_topology";
/// A configuration that cannot be expressed as a wire `JobSpec`
/// (closures: custom probes, injectors, reschedulers, ad-hoc fleets).
pub const NOT_SERIALIZABLE: &str = "not_serializable";
/// A wire `JobSpec` that is malformed or uses an unknown field value.
pub const INVALID_SPEC: &str = "invalid_spec";
/// An online client-selection config with a bad policy parameter, a zero
/// cohort, or a combination the build target cannot honour.
pub const INVALID_SELECTION: &str = "invalid_selection";

/// Every cause code, in declaration order. Exhaustiveness is enforced in
/// `fedsched-fl`, where `ConfigError::cause_code()` maps each variant to a
/// constant from this module.
pub const ALL_CAUSE_CODES: &[&str] = &[
    ZERO_COHORT_SIZE,
    ZERO_THREADS,
    CONFIGURED_AFTER_RUN,
    EMPTY_ASSIGNMENT,
    INVALID_DEADLINE,
    INVALID_SOC_FLOOR,
    INVALID_RETRY,
    INVALID_ASYNC,
    UNSUPPORTED_OPTION,
    ARITY_MISMATCH,
    ZERO_RESCHEDULE_INTERVAL,
    INVALID_AGGREGATOR,
    INVALID_ADVERSARY,
    INVALID_CHURN,
    INVALID_TOPOLOGY,
    NOT_SERIALIZABLE,
    INVALID_SPEC,
    INVALID_SELECTION,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for code in ALL_CAUSE_CODES {
            assert!(seen.insert(*code), "duplicate cause code `{code}`");
        }
    }

    #[test]
    fn codes_are_snake_case() {
        // The published convention is snake_case (NOT kebab-case — see the
        // module docs): ascii lowercase and underscores only, no leading /
        // trailing / doubled separators.
        for code in ALL_CAUSE_CODES {
            assert!(!code.is_empty());
            assert!(
                code.bytes().all(|b| b.is_ascii_lowercase() || b == b'_'),
                "cause code `{code}` is not snake_case"
            );
            assert!(!code.starts_with('_') && !code.ends_with('_'));
            assert!(!code.contains("__"), "cause code `{code}` has `__`");
        }
    }

    #[test]
    fn table_is_pinned() {
        // Wire-contract pin: adding a code extends this list; removing or
        // renaming one is a breaking change and must not happen silently.
        assert_eq!(
            ALL_CAUSE_CODES,
            &[
                "zero_cohort_size",
                "zero_threads",
                "configured_after_run",
                "empty_assignment",
                "invalid_deadline",
                "invalid_soc_floor",
                "invalid_retry",
                "invalid_async",
                "unsupported_option",
                "arity_mismatch",
                "zero_reschedule_interval",
                "invalid_aggregator",
                "invalid_adversary",
                "invalid_churn",
                "invalid_topology",
                "not_serializable",
                "invalid_spec",
                "invalid_selection",
            ]
        );
    }
}
