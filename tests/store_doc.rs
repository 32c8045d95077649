//! `docs/STORE.md` is a *test-enforced* format and architecture
//! contract, in the same spirit as `docs/SERVER.md` /
//! `tests/serve_doc.rs`: every invariant anchor, store counter, CLI
//! flag, and version number the document states is cross-referenced
//! here against the code, so the document cannot silently drift from
//! the implementation.

use aceso::obs::schema::{COUNTERS, EVENTS};
use aceso::obs::NONDETERMINISTIC_COUNTERS;
use aceso::store::STORE_SCHEMA_VERSION;

const DOC_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/docs/STORE.md");

fn doc() -> String {
    std::fs::read_to_string(DOC_PATH).unwrap_or_else(|e| panic!("cannot read {DOC_PATH}: {e}"))
}

/// The document with runs of whitespace collapsed, so assertions can
/// match phrases that wrap across hard line breaks.
fn doc_flat() -> String {
    doc().split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Every `INV-<NAME>` token in `text`, deduplicated (same scan as
/// `tests/serve_doc.rs`).
fn inv_tokens(text: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut i = 0;
    while let Some(pos) = text[i..].find("INV-") {
        let start = i + pos + "INV-".len();
        let mut name: String = text[start..]
            .chars()
            .take_while(|c| c.is_ascii_uppercase() || *c == '-')
            .collect();
        i = start;
        while name.ends_with('-') {
            name.pop();
        }
        if !name.is_empty() && !out.contains(&name) {
            out.push(name);
        }
    }
    out
}

/// The store counters must exist in the schema registry, stay
/// deterministic (a fixed request sequence against a fixed directory
/// always produces the same values), and be documented by name; the
/// `store_degraded` event and both its fields likewise.
#[test]
fn doc_names_every_store_counter_and_event() {
    let doc = doc();
    for name in [
        "store_hits",
        "store_misses",
        "store_writes",
        "store_evictions",
        "store_rejected",
    ] {
        assert!(
            COUNTERS.iter().any(|(n, _)| *n == name),
            "store counter `{name}` is gone from the schema registry — \
             update docs/STORE.md and this test together"
        );
        assert!(
            !NONDETERMINISTIC_COUNTERS.contains(&name),
            "store counter `{name}` is deterministic by contract and must \
             stay out of NONDETERMINISTIC_COUNTERS"
        );
        assert!(
            doc.contains(&format!("`{name}`")),
            "docs/STORE.md is missing store counter `{name}`"
        );
    }
    let spec = EVENTS
        .iter()
        .find(|s| s.kind == "store_degraded")
        .expect("store_degraded is a registered event kind");
    for field in ["file", "reason"] {
        assert!(
            spec.fields.iter().any(|f| f.name == field),
            "store_degraded must carry the `{field}` field"
        );
    }
    assert!(
        doc.contains("`store_degraded`"),
        "docs/STORE.md must document the store_degraded event"
    );
}

/// The stated store schema version must be the code's.
#[test]
fn doc_states_the_current_store_schema_version() {
    assert!(
        doc_flat().contains(&format!("Store schema version: {STORE_SCHEMA_VERSION}")),
        "docs/STORE.md must state the current store schema version \
         ({STORE_SCHEMA_VERSION}, aceso_store::STORE_SCHEMA_VERSION)"
    );
}

/// The store flags are documented in both the doc and the usage text.
#[test]
fn doc_covers_the_store_flags() {
    let doc = doc();
    for flag in ["--store-dir", "--store-budget-bytes", "--dir"] {
        assert!(
            doc.contains(flag),
            "docs/STORE.md must document the `{flag}` flag"
        );
        assert!(
            aceso::cli::USAGE.contains(flag),
            "the aceso binary must advertise `{flag}` (aceso::cli::USAGE)"
        );
    }
    for subcommand in ["store ls", "store verify", "store prune"] {
        assert!(
            aceso::cli::USAGE.contains("(ls | verify | prune)")
                || aceso::cli::USAGE.contains(subcommand),
            "the aceso binary must advertise `aceso {subcommand}`"
        );
    }
}

/// Invariant anchors stay in sync in both directions: every `INV-STORE`
/// anchor the store sources cite is defined in the document, and every
/// one the document defines is cited by at least one store source file.
#[test]
fn invariant_anchors_match_the_code() {
    let doc_invs = inv_tokens(&doc());
    for required in ["STORE-ATOMIC", "STORE-DEGRADE", "STORE-BITEXACT"] {
        assert!(
            doc_invs.iter().any(|i| i == required),
            "docs/STORE.md must define INV-{required}"
        );
    }

    let store_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/store/src");
    let mut code_invs: Vec<String> = Vec::new();
    for entry in std::fs::read_dir(store_dir).expect("store src listable") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|x| x == "rs") {
            let text = std::fs::read_to_string(&path).expect("source readable");
            for inv in inv_tokens(&text) {
                if !code_invs.contains(&inv) {
                    code_invs.push(inv);
                }
            }
        }
    }
    for inv in &code_invs {
        assert!(
            doc_invs.contains(inv),
            "crates/store cites INV-{inv} but docs/STORE.md never defines it"
        );
    }
    for inv in doc_invs.iter().filter(|i| i.starts_with("STORE")) {
        assert!(
            code_invs.contains(inv),
            "docs/STORE.md defines INV-{inv} but no crates/store source cites it"
        );
    }
}

/// The document points at the tests and harnesses that actually enforce
/// its claims.
#[test]
fn doc_references_its_enforcement_surface() {
    let doc = doc();
    for needle in [
        "tests/store_doc.rs",
        "tests/store.rs",
        "zoo_corpus_round_trips_bit_identically",
        "concurrent_daemons_share_one_store_dir",
        "every_truncation_degrades_typed",
        "every_byte_flip_degrades_or_roundtrips",
        "store_precision_mismatch_is_rejected_not_merged",
        "no_counter_is_silently_dead",
        "serve_bench restart",
        "RESTART_WARM_BOUND",
        "aceso_util::retention",
    ] {
        assert!(
            doc.contains(needle),
            "docs/STORE.md must reference its enforcement surface: missing `{needle}`"
        );
    }
}
