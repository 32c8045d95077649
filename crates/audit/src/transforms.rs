//! Analyzer 2: transform pre/post-condition checking.
//!
//! Every candidate configuration produced by `generate_with` — with every
//! combination feature enabled (relay moves, attached recompute fix-up,
//! ZeRO extension) — must pass full validation, conserve the GPU total,
//! report at least one applied primitive, actually differ from its input,
//! be unique within its generation batch, and carry a fingerprint equal to
//! its configuration's semantic hash (the search dedups on that field
//! without re-hashing).

use crate::corpus::CorpusSample;
use crate::report::{AuditFinding, AuditReport, Severity};
use crate::Mutation;
use aceso_core::primitives::{generate_with, GenOptions};
use aceso_core::{Primitive, Resource};
use aceso_perf::PerfModel;
use std::collections::HashSet;

/// Runs the transform-validity analyzer over one corpus sample.
///
/// With [`Mutation::StaleFingerprint`] the sample's first candidate gets
/// one recompute flag flipped after generation while its fingerprint is
/// left as generated — the mutation gate for `XFORM-FINGERPRINT`.
pub fn audit_transforms(
    sample: &CorpusSample,
    mutation: Option<Mutation>,
    report: &mut AuditReport,
) {
    let pm = PerfModel::new(&sample.model, &sample.cluster, &sample.db);
    let opts = GenOptions {
        attach_rc: true,
        relay_moves: true,
        enable_zero: true,
    };
    let mut stale_pending = mutation == Some(Mutation::StaleFingerprint);
    for (ci, config) in sample.configs.iter().enumerate() {
        let est = pm.evaluate_unchecked(config);
        let input_hash = config.semantic_hash();
        let input_gpus = config.total_gpus();
        for stage in 0..config.num_stages() {
            for resource in Resource::ALL {
                for prim in Primitive::EXTENDED {
                    let mut seen: HashSet<u64> = HashSet::new();
                    for mut cand in generate_with(&pm, config, &est, prim, stage, resource, opts) {
                        if stale_pending {
                            let op = &mut cand.config.stages[0].ops[0];
                            op.recompute = !op.recompute;
                            stale_pending = false;
                        }
                        let loc = format!(
                            "{}#cfg{} stage {} {} for {:?}",
                            sample.label,
                            ci,
                            stage,
                            prim.name(),
                            resource
                        );
                        let h = cand.config.semantic_hash();
                        report.tick(6);
                        if cand.fingerprint != h {
                            report.push(AuditFinding {
                                rule: "XFORM-FINGERPRINT",
                                severity: Severity::Error,
                                location: loc.clone(),
                                message: format!(
                                    "candidate carries fingerprint {:#018x}, its configuration hashes to {h:#018x}",
                                    cand.fingerprint
                                ),
                                fingerprint: h,
                            });
                        }
                        if cand.config.total_gpus() != input_gpus {
                            report.push(AuditFinding {
                                rule: "XFORM-GPUS",
                                severity: Severity::Error,
                                location: loc.clone(),
                                message: format!(
                                    "candidate uses {} GPUs, input used {}",
                                    cand.config.total_gpus(),
                                    input_gpus
                                ),
                                fingerprint: h,
                            });
                        } else if let Err(e) = aceso_config::validate::validate(
                            &cand.config,
                            &sample.model,
                            &sample.cluster,
                        ) {
                            report.push(AuditFinding {
                                rule: "XFORM-VALID",
                                severity: Severity::Error,
                                location: loc.clone(),
                                message: format!("candidate fails validation: {e}"),
                                fingerprint: h,
                            });
                        }
                        if cand.primitives_applied == 0 {
                            report.push(AuditFinding {
                                rule: "XFORM-HOPS",
                                severity: Severity::Error,
                                location: loc.clone(),
                                message: "candidate reports zero applied primitives".into(),
                                fingerprint: h,
                            });
                        }
                        if h == input_hash {
                            report.push(AuditFinding {
                                rule: "XFORM-NOOP",
                                severity: Severity::Error,
                                location: loc.clone(),
                                message: "candidate is identical to its input configuration".into(),
                                fingerprint: h,
                            });
                        }
                        if !seen.insert(h) {
                            report.push(AuditFinding {
                                rule: "XFORM-DUP",
                                severity: Severity::Error,
                                location: loc,
                                message: "duplicate candidate fingerprint in one generation".into(),
                                fingerprint: h,
                            });
                        }
                    }
                }
            }
        }
    }
}
