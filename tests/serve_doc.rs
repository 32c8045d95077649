//! `docs/SERVER.md` is a *test-enforced* wire and architecture
//! contract, in the same spirit as `docs/SEARCH.md` /
//! `tests/search_doc.rs`: every front-end invariant anchor, serve
//! counter, CLI flag, pipeline constant, and version number the
//! document states is cross-referenced here against the code, so the
//! document cannot silently drift from the implementation.

use aceso::obs::schema::COUNTERS;
use aceso::obs::{NONDETERMINISTIC_COUNTERS, SCHEMA_VERSION};
use aceso::serve::{PIPELINE_DEPTH, PROTOCOL_VERSION};

const DOC_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/docs/SERVER.md");

fn doc() -> String {
    std::fs::read_to_string(DOC_PATH).unwrap_or_else(|e| panic!("cannot read {DOC_PATH}: {e}"))
}

/// The document with runs of whitespace collapsed, so assertions can
/// match phrases that wrap across hard line breaks.
fn doc_flat() -> String {
    doc().split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Every `INV-<NAME>` token in `text`, deduplicated. Names are
/// uppercase words joined by single dashes (`INV-PIPELINE-ORDER`), so
/// the scan accepts dashes but trims a trailing one (`INV-NONBLOCK's`
/// possessive, end of parenthesis, etc. stay out of the name).
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

/// The reactor counters must exist in the schema registry, be declared
/// nondeterministic there, and be documented by name; conversely every
/// `serve_`-prefixed counter the schema calls nondeterministic must be
/// called out in the document.
#[test]
fn doc_names_every_reactor_counter() {
    let doc = doc();
    for name in [
        "serve_connections_open",
        "serve_pipelined_requests",
        "serve_fairness_deferrals",
    ] {
        assert!(
            COUNTERS.iter().any(|(n, _)| *n == name),
            "reactor counter `{name}` is gone from the schema registry — \
             update docs/SERVER.md and this test together"
        );
        assert!(
            NONDETERMINISTIC_COUNTERS.contains(&name),
            "reactor counter `{name}` is timing-dependent and must stay in \
             NONDETERMINISTIC_COUNTERS"
        );
        assert!(
            doc.contains(&format!("`{name}`")),
            "docs/SERVER.md is missing reactor counter `{name}`"
        );
    }
    for name in NONDETERMINISTIC_COUNTERS
        .iter()
        .filter(|n| n.starts_with("serve_"))
    {
        assert!(
            doc.contains(&format!("`{name}`")),
            "docs/SERVER.md must document the non-deterministic serve counter `{name}`"
        );
    }
}

/// The stated protocol, schema, and pipeline-depth constants must be
/// the code's.
#[test]
fn doc_states_current_versions_and_limits() {
    let flat = doc_flat();
    assert!(
        flat.contains(&format!(
            "`protocol_version` (currently **{PROTOCOL_VERSION}**)"
        )),
        "docs/SERVER.md must state the current protocol_version \
         ({PROTOCOL_VERSION}, aceso_serve::wire)"
    );
    assert!(
        flat.contains(&format!("currently {SCHEMA_VERSION})")),
        "docs/SERVER.md must state the current metric schema_version \
         ({SCHEMA_VERSION}, docs/OBSERVABILITY.md)"
    );
    assert!(
        flat.contains(&format!("**{PIPELINE_DEPTH}** (`PIPELINE_DEPTH`")),
        "docs/SERVER.md must state the per-connection pipeline depth \
         ({PIPELINE_DEPTH}, aceso_serve::reactor::PIPELINE_DEPTH)"
    );
}

/// The front-end flags are documented in both the doc and the usage text.
#[test]
fn doc_covers_the_reactor_flags() {
    let doc = doc();
    for flag in ["--max-connections", "--io-timeout-secs", "--workers"] {
        assert!(
            doc.contains(flag),
            "docs/SERVER.md must document the `{flag}` flag"
        );
        assert!(
            aceso::cli::USAGE.contains(flag),
            "the aceso binary must advertise `{flag}` (aceso::cli::USAGE)"
        );
    }
}

/// Invariant anchors stay in sync in both directions: every `INV-` the
/// serve sources cite is defined in the document, and every `INV-` the
/// document defines is cited by at least one serve source file (a stale
/// anchor in either place is drift).
#[test]
fn invariant_anchors_match_the_code() {
    let doc_invs = inv_tokens(&doc());
    for required in ["NONBLOCK", "PIPELINE-ORDER", "FAIRNESS"] {
        assert!(
            doc_invs.iter().any(|i| i == required),
            "docs/SERVER.md must define INV-{required}"
        );
    }

    let serve_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/serve/src");
    let mut code_invs: Vec<String> = Vec::new();
    for entry in std::fs::read_dir(serve_dir).expect("serve src listable") {
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
            "crates/serve cites INV-{inv} but docs/SERVER.md never defines it"
        );
    }
    for inv in &doc_invs {
        assert!(
            code_invs.contains(inv),
            "docs/SERVER.md defines INV-{inv} but no crates/serve source cites it"
        );
    }
}

/// The document points at the tests and harnesses that actually enforce
/// its claims.
#[test]
fn doc_references_its_enforcement_surface() {
    let doc = doc();
    for needle in [
        "tests/serve_doc.rs",
        "tests/serve.rs",
        "concurrent_requests_are_bit_identical_to_direct_runs",
        "reactor_responses_are_bit_identical_to_direct_runs",
        "severed_connection_resumes_from_spool_on_retry",
        "reactor_counts_fairness_deferrals_and_pipelined_requests",
        "busy_rejections_back_off_on_the_short_clock",
        "serve_bench fleet",
        "reactor_fleet_smoke_sixty_four_clients",
        "NONDETERMINISTIC_COUNTERS",
        "FrameDecoder",
        "submit_pipelined",
    ] {
        assert!(
            doc.contains(needle),
            "docs/SERVER.md must reference its enforcement surface: missing `{needle}`"
        );
    }
}
