//! Property tests: the hostile-text parsers of `dex-sim` return `Ok` or
//! `Err` on arbitrary input and never panic. Inputs are built from
//! tokens that reach deep into each grammar (headers, directives,
//! numbers at and past the integer limits, separators, escapes).

use dex_sim::{FaultPlan, ScheduleLog};
use proptest::prelude::*;

const TOKENS: &[&str] = &[
    "# faultplan",
    "#",
    "delay",
    "stall",
    "crash",
    "0",
    "1",
    "7",
    "65535",
    "65536",
    "65537",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "x",
    " ",
    "  ",
    "\t",
    "\n",
    "\r\n",
    "\\",
    "\\t",
    "\\q",
    "日",
];

/// Up to 40 tokens, concatenated.
fn hostile_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..TOKENS.len(), 0..41)
        .prop_map(|ix| ix.into_iter().map(|i| TOKENS[i]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn fault_plan_parse_never_panics(text in hostile_text()) {
        if let Ok(plan) = FaultPlan::parse(&text) {
            // Whatever parsed must survive its own round trip.
            prop_assert_eq!(FaultPlan::parse(&plan.to_text()), Ok(plan));
        }
    }

    #[test]
    fn schedule_log_parse_never_panics(text in hostile_text()) {
        if let Ok(log) = ScheduleLog::parse(&text) {
            let back = ScheduleLog::parse(&log.to_text());
            prop_assert!(back.is_ok(), "re-parse failed: {:?}", back.err());
            prop_assert_eq!(back.unwrap().len(), log.len());
        }
    }
}
