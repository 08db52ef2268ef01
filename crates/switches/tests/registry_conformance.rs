//! Registry conformance, pinned **by literal switch name**: every
//! runtime switch the workspace reacts to is asserted here — const ↔
//! environment-variable name agreement, membership in [`ALL`], and
//! off-value parsing through the real process environment. This file is
//! also what the `switch-coverage` lint rule counts as the "referenced
//! by a test" leg for the registry: adding a switch without extending
//! these tables fails `cargo run -p xtask -- lint`.

use kfds_switches::{Switch, ALL, KFDS_BATCH, KFDS_SIMD, KFDS_WS_POOL};

/// Every registered switch, by const and by the literal name it must
/// sample from the environment.
const NAMED: &[(&Switch, &str)] =
    &[(&KFDS_SIMD, "KFDS_SIMD"), (&KFDS_WS_POOL, "KFDS_WS_POOL"), (&KFDS_BATCH, "KFDS_BATCH")];

#[test]
fn every_switch_const_matches_its_name_and_is_registered() {
    assert_eq!(NAMED.len(), ALL.len(), "extend NAMED when registering a new switch");
    for (sw, name) in NAMED {
        assert_eq!(sw.name, *name);
        assert!(ALL.iter().any(|s| s.name == *name), "{name} is not in kfds_switches::ALL");
        assert!(!sw.off_values.is_empty(), "{name} has no disabling values");
        assert!(!sw.doc.is_empty(), "{name} is undocumented");
    }
}

/// Off-value parsing against the real environment, for every switch.
/// Single test function: integration tests in one binary run on parallel
/// threads, and the process environment is shared state.
#[test]
fn off_values_flip_is_off_through_the_environment() {
    for (sw, name) in NAMED {
        std::env::remove_var(name);
        assert!(!sw.is_off(), "{name}: unset must select the default path");
        for off in sw.off_values {
            std::env::set_var(name, off);
            assert!(sw.is_off(), "{name}={off} must select the reference path");
        }
        std::env::set_var(name, "definitely-not-an-off-value");
        assert!(!sw.is_off(), "{name}: unrecognized values keep the default");
        std::env::remove_var(name);
    }
}
