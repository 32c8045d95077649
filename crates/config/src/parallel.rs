//! The configuration data structures and their semantic hash.

use aceso_cluster::DeviceRange;
use aceso_util::json::{obj, FromJson, JsonError, ToJson, Value};
use aceso_util::FnvHasher;

/// Per-operator parallelism settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpParallel {
    /// Tensor-parallel degree.
    pub tp: u32,
    /// Data-parallel degree (`tp · dp` equals the stage's GPU count).
    pub dp: u32,
    /// Index into the operator's `partitions` list (partition dimension).
    pub dim_index: u8,
    /// Whether this operator's activations are recomputed in backward.
    pub recompute: bool,
    /// ZeRO-1 extension: shard this operator's optimiser states across its
    /// data-parallel group (trades an extra parameter all-gather per
    /// iteration for `1/dp` of the optimiser memory). Not part of the
    /// paper's Table 1 — see `aceso_core::primitives` for the extension
    /// primitives that toggle it.
    pub zero: bool,
}

impl OpParallel {
    /// Pure data parallelism over `gpus` devices.
    pub fn data_parallel(gpus: u32) -> Self {
        Self {
            tp: 1,
            dp: gpus,
            dim_index: 0,
            recompute: false,
            zero: false,
        }
    }

    /// Total devices this operator runs on.
    pub fn gpus(&self) -> u32 {
        self.tp * self.dp
    }
}

/// One pipeline stage: a contiguous operator range on a device group.
#[derive(Debug, Clone, PartialEq)]
pub struct StageConfig {
    /// First operator index (inclusive).
    pub op_start: usize,
    /// One-past-last operator index (exclusive).
    pub op_end: usize,
    /// Devices assigned to this stage.
    pub gpus: usize,
    /// Per-operator settings, `op_end - op_start` entries.
    pub ops: Vec<OpParallel>,
}

impl StageConfig {
    /// Creates a stage where every operator shares one `(tp, dp)` setting.
    pub fn uniform(op_start: usize, op_end: usize, para: OpParallel) -> Self {
        Self {
            op_start,
            op_end,
            gpus: para.gpus() as usize,
            ops: vec![para; op_end - op_start],
        }
    }

    /// Number of operators in the stage.
    pub fn num_ops(&self) -> usize {
        self.op_end - self.op_start
    }

    /// Number of recomputed operators in the stage.
    pub fn num_recomputed(&self) -> usize {
        self.ops.iter().filter(|o| o.recompute).count()
    }

    /// Feeds the per-op settings to `h`, run-length encoded so the hash
    /// cost stays proportional to the number of *distinct* settings runs.
    /// Shared by [`ParallelConfig::semantic_hash`] and the evaluator's
    /// per-stage memo key.
    pub fn hash_settings(&self, h: &mut FnvHasher) {
        for run in self.ops.chunk_by(|a, b| a == b) {
            let o = run[0];
            h.write_usize(run.len());
            h.write_u64(u64::from(o.tp));
            h.write_u64(u64::from(o.dp));
            h.write_u64(u64::from(o.dim_index));
            h.write_bool(o.recompute);
            h.write_bool(o.zero);
        }
    }

    /// Settings of the operator with *global* index `op`, if it lies in
    /// this stage.
    pub fn op_parallel(&self, op: usize) -> Option<&OpParallel> {
        if op >= self.op_start && op < self.op_end {
            self.ops.get(op - self.op_start)
        } else {
            None
        }
    }
}

/// A complete parallel configuration (paper Fig. 2).
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelConfig {
    /// Pipeline stages in model order; their op ranges partition the model.
    pub stages: Vec<StageConfig>,
    /// Global (aggregated) microbatch size; a stage replica with
    /// data-parallel degree `d` processes `microbatch / d` samples.
    pub microbatch: usize,
}

impl ParallelConfig {
    /// Number of pipeline stages.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Total devices across stages.
    pub fn total_gpus(&self) -> usize {
        self.stages.iter().map(|s| s.gpus).sum()
    }

    /// Global GPU id range of stage `i` (stages own contiguous ranges in
    /// model order).
    pub fn device_range(&self, stage: usize) -> DeviceRange {
        let start = self.stages[..stage].iter().map(|s| s.gpus).sum();
        DeviceRange::new(start, self.stages[stage].gpus)
    }

    /// Number of microbatches per iteration for `global_batch`.
    pub fn num_microbatches(&self, global_batch: usize) -> usize {
        if self.microbatch == 0 {
            return 0;
        }
        global_batch / self.microbatch
    }

    /// The stage containing the operator with global index `op`.
    pub fn stage_of_op(&self, op: usize) -> Option<usize> {
        self.stages
            .iter()
            .position(|s| op >= s.op_start && op < s.op_end)
    }

    /// Semantic-aware stable hash for deduplication (paper §4.3).
    ///
    /// Two configurations that define the same execution hash equally:
    /// the hash covers stage boundaries, device counts, per-op
    /// `(tp, dp, dim, recompute)` and the microbatch size — nothing else.
    pub fn semantic_hash(&self) -> u64 {
        let mut h = FnvHasher::new();
        h.write_usize(self.microbatch);
        h.write_usize(self.stages.len());
        for s in &self.stages {
            h.write_usize(s.op_start);
            h.write_usize(s.op_end);
            h.write_usize(s.gpus);
            s.hash_settings(&mut h);
        }
        h.finish()
    }
}

impl ToJson for OpParallel {
    fn to_json_value(&self) -> Value {
        obj([
            ("tp", Value::UInt(u64::from(self.tp))),
            ("dp", Value::UInt(u64::from(self.dp))),
            ("dim_index", Value::UInt(u64::from(self.dim_index))),
            ("recompute", Value::Bool(self.recompute)),
            ("zero", Value::Bool(self.zero)),
        ])
    }
}

impl FromJson for OpParallel {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        Ok(Self {
            tp: v.field("tp")?.as_u32()?,
            dp: v.field("dp")?.as_u32()?,
            dim_index: v.field("dim_index")?.as_u8()?,
            recompute: v.field("recompute")?.as_bool()?,
            // `zero` postdates early snapshots; missing means off.
            zero: match v.get("zero") {
                Some(z) => z.as_bool()?,
                None => false,
            },
        })
    }
}

impl ToJson for StageConfig {
    fn to_json_value(&self) -> Value {
        obj([
            ("op_start", Value::UInt(self.op_start as u64)),
            ("op_end", Value::UInt(self.op_end as u64)),
            ("gpus", Value::UInt(self.gpus as u64)),
            ("ops", self.ops.to_json_value()),
        ])
    }
}

impl FromJson for StageConfig {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        let mut ops = Vec::new();
        for o in v.field("ops")?.as_array()? {
            ops.push(OpParallel::from_json_value(o)?);
        }
        Ok(Self {
            op_start: v.field("op_start")?.as_usize()?,
            op_end: v.field("op_end")?.as_usize()?,
            gpus: v.field("gpus")?.as_usize()?,
            ops,
        })
    }
}

impl ToJson for ParallelConfig {
    fn to_json_value(&self) -> Value {
        obj([
            ("stages", self.stages.to_json_value()),
            ("microbatch", Value::UInt(self.microbatch as u64)),
        ])
    }
}

impl FromJson for ParallelConfig {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        let mut stages = Vec::new();
        for s in v.field("stages")?.as_array()? {
            stages.push(StageConfig::from_json_value(s)?);
        }
        Ok(Self {
            stages,
            microbatch: v.field("microbatch")?.as_usize()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_stage() -> ParallelConfig {
        ParallelConfig {
            stages: vec![
                StageConfig::uniform(0, 4, OpParallel::data_parallel(4)),
                StageConfig::uniform(4, 8, OpParallel::data_parallel(4)),
            ],
            microbatch: 8,
        }
    }

    #[test]
    fn basics() {
        let c = two_stage();
        assert_eq!(c.num_stages(), 2);
        assert_eq!(c.total_gpus(), 8);
        assert_eq!(c.device_range(0), DeviceRange::new(0, 4));
        assert_eq!(c.device_range(1), DeviceRange::new(4, 4));
        assert_eq!(c.num_microbatches(64), 8);
        assert_eq!(c.stage_of_op(5), Some(1));
        assert_eq!(c.stage_of_op(8), None);
    }

    #[test]
    fn stage_lookup() {
        let s = StageConfig::uniform(4, 8, OpParallel::data_parallel(2));
        assert_eq!(s.num_ops(), 4);
        assert!(s.op_parallel(4).is_some());
        assert!(s.op_parallel(3).is_none());
        assert!(s.op_parallel(8).is_none());
        assert_eq!(s.num_recomputed(), 0);
    }

    #[test]
    fn hash_stable_and_sensitive() {
        let a = two_stage();
        let b = two_stage();
        assert_eq!(a.semantic_hash(), b.semantic_hash());
        let mut c = two_stage();
        c.microbatch = 4;
        assert_ne!(a.semantic_hash(), c.semantic_hash());
        let mut d = two_stage();
        d.stages[0].ops[2].recompute = true;
        assert_ne!(a.semantic_hash(), d.semantic_hash());
        let mut e = two_stage();
        e.stages[0].ops[1].tp = 2;
        e.stages[0].ops[1].dp = 2;
        assert_ne!(a.semantic_hash(), e.semantic_hash());
    }

    #[test]
    fn semantic_hash_is_pinned() {
        // Fingerprints live in goldens, event streams, checkpoints and
        // stores: the value itself must never drift, not just stay
        // deterministic. Mixed runs and a multi-byte op range exercise
        // every width `FnvHasher::write_u64` handles.
        let mut c = ParallelConfig {
            stages: vec![
                StageConfig::uniform(0, 300, OpParallel::data_parallel(4)),
                StageConfig::uniform(300, 70_000, OpParallel::data_parallel(4)),
            ],
            microbatch: 8,
        };
        c.stages[0].ops[7].recompute = true;
        c.stages[0].ops[9].zero = true;
        c.stages[1].ops[0] = OpParallel {
            tp: 2,
            dp: 2,
            dim_index: 1,
            recompute: false,
            zero: false,
        };
        assert_eq!(c.semantic_hash(), 0x40F1_ED26_CBE2_D1BE);
    }

    #[test]
    fn op_parallel_gpus() {
        let o = OpParallel {
            tp: 4,
            dp: 2,
            dim_index: 0,
            recompute: false,
            zero: false,
        };
        assert_eq!(o.gpus(), 8);
        assert_eq!(OpParallel::data_parallel(8).gpus(), 8);
    }

    #[test]
    fn zero_microbatch_yields_zero_count() {
        let mut c = two_stage();
        c.microbatch = 0;
        assert_eq!(c.num_microbatches(64), 0);
    }
}
