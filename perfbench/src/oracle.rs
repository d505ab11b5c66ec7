//! Expected answers from independent slow paths, and the reply checks.
//!
//! * `branching`: `Algorithm::Naive` over the strong instance and over the
//!   weak instance (the server answers with Paige–Tarjan).
//! * `linear-time`: the per-pair subset-construction checkers, through
//!   `EquivSession::representative_scan_partition` on a fresh session (the
//!   server answers from the shared determinized product DFA or the
//!   on-the-fly search); protocol unions are also checked against the
//!   corpus's known verdict.
//! * `live-edit`: a from-scratch naive solve of the mirrored process after
//!   every batch (the server repairs its partitions by delta refinement).
//!
//! Replies are read with the benchmark's own JSON reader.

use std::collections::HashMap;
use std::fs;
use std::path::Path;

use ccs_equiv::{failures, language, strong, traces, weak, EquivSession, Equivalence};
use ccs_fsp::{Fsp, Label, StateId};
use ccs_partition::{Algorithm, Partition};

use crate::json::{self, Val};
use crate::plan::{model_fsp, state_names, Model, Plan, Req, Step, Workload};

/// One request as it was answered.
#[derive(Clone, Debug)]
pub struct Record {
    /// Index into `Plan::setup` (when `setup`) or `Plan::cycle`.
    pub step: usize,
    pub setup: bool,
    pub latency_ns: u64,
    /// The reply line, or the transport error.
    pub reply: Result<String, String>,
}

impl Record {
    pub fn step<'p>(&self, plan: &'p Plan) -> &'p Step {
        if self.setup {
            &plan.setup[self.step]
        } else {
            &plan.cycle[self.step]
        }
    }
}

/// The outcome of checking a run's replies.
#[derive(Debug, Default)]
pub struct Checked {
    pub checked: usize,
    pub failed: usize,
    /// Indices of the records that failed their check.
    pub bad: Vec<usize>,
    /// The first few failures, for the log.
    pub errors: Vec<String>,
}

impl Checked {
    fn fail(&mut self, record: Option<usize>, message: String) {
        self.failed += 1;
        self.bad.extend(record);
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }
}

struct Truth {
    fsp: Fsp,
    /// Content key of the model text, for the on-disk answer cache.
    key: u64,
    index: HashMap<String, usize>,
    partitions: HashMap<Equivalence, Partition>,
    pairs: HashMap<(Equivalence, usize, usize), bool>,
}

impl Truth {
    fn new(model: &Model) -> Truth {
        let fsp = model_fsp(model);
        let index = state_names(&fsp)
            .into_iter()
            .enumerate()
            .map(|(i, n)| (n, i))
            .collect();
        Truth {
            fsp,
            key: fnv1a(model.text.as_bytes()),
            index,
            partitions: HashMap::new(),
            pairs: HashMap::new(),
        }
    }

    /// One pair verdict.  The determinizable notions ask the per-pair
    /// subset-construction checker, so a run that only queries pairs never
    /// pays for a whole-model scan.
    fn pair(&mut self, notion: Equivalence, p: usize, q: usize) -> bool {
        let (sp, sq) = (StateId::from_index(p), StateId::from_index(q));
        let fsp = &self.fsp;
        match notion {
            Equivalence::Language => *self
                .pairs
                .entry((notion, p, q))
                .or_insert_with(|| language::language_equivalent_states(fsp, sp, sq).holds),
            Equivalence::Trace => *self
                .pairs
                .entry((notion, p, q))
                .or_insert_with(|| traces::trace_equivalent_states(fsp, sp, sq).holds),
            Equivalence::Failure => *self
                .pairs
                .entry((notion, p, q))
                .or_insert_with(|| failures::failure_equivalent_states(fsp, sp, sq).equivalent),
            _ => self.partition(notion).same_block(p, q),
        }
    }

    fn partition(&mut self, notion: Equivalence) -> &Partition {
        let (fsp, key) = (&self.fsp, self.key);
        self.partitions
            .entry(notion)
            .or_insert_with(|| match notion {
                Equivalence::Strong => strong::strong_partition_with(fsp, Algorithm::Naive)
                    .partition()
                    .clone(),
                Equivalence::Observational => weak::weak_partition_with(fsp, Algorithm::Naive)
                    .partition()
                    .clone(),
                other => cached_scan(fsp, key, other),
            })
    }

    fn state(&self, name: &str) -> Result<usize, String> {
        self.index
            .get(name)
            .copied()
            .ok_or_else(|| format!("unknown state {name:?}"))
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The representative scan runs one subset construction per (state,
/// class) pair — over a minute for the blow-up models.  Its answer depends
/// only on the model text, so it is kept on disk inside this package's
/// directory and shared by every seed and run of the same checkout.
fn cached_scan(fsp: &Fsp, key: u64, notion: Equivalence) -> Partition {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(".oracle-cache");
    let path = dir.join(format!("{key:016x}-{notion}"));
    if let Ok(text) = fs::read_to_string(&path) {
        let assignment: Vec<usize> = text
            .split_whitespace()
            .filter_map(|t| t.parse().ok())
            .collect();
        if assignment.len() == fsp.num_states() {
            return Partition::from_assignment(&assignment);
        }
    }
    let partition = EquivSession::for_process(fsp).representative_scan_partition(notion);
    let text: Vec<String> = partition.assignment().map(|b| b.to_string()).collect();
    // Written whole, then renamed, so a concurrent reader never sees half.
    let tmp = dir.join(format!("{key:016x}-{notion}.{}", std::process::id()));
    let stored = fs::create_dir_all(&dir)
        .and_then(|()| fs::write(&tmp, text.join(" ")))
        .and_then(|()| fs::rename(&tmp, &path));
    if stored.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    partition
}

/// Canonical block set: each block's state indices sorted, blocks sorted.
fn canonical(mut blocks: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
    for block in &mut blocks {
        block.sort_unstable();
    }
    blocks.sort_unstable();
    blocks
}

fn expected_blocks(partition: &Partition) -> Vec<Vec<usize>> {
    canonical(
        partition
            .blocks()
            .iter()
            .map(|b| b.iter().map(|s| s.index()).collect())
            .collect(),
    )
}

/// Checks every record of a run against the oracle.  With `corrupt`, the
/// first pair verdict the oracle hands out is flipped — the self-test that
/// a wrong expected answer is caught.
pub fn check(plan: &Plan, records: &[Record], corrupt: bool) -> Checked {
    let mut out = Checked::default();
    let mut truths: HashMap<usize, Truth> = HashMap::new();
    // live-edit: the mirrored process advances with every mutate.
    let mut live: Option<Truth> = None;
    let mut corrupt_pending = corrupt;
    for (i, record) in records.iter().enumerate() {
        let step = record.step(plan);
        out.checked += 1;
        let reply = match &record.reply {
            Ok(line) => match json::parse(line) {
                Ok(v) => v,
                Err(e) => {
                    out.fail(Some(i), format!("unparsable reply ({e}): {line:.120}"));
                    continue;
                }
            },
            Err(e) => {
                out.fail(Some(i), format!("transport error: {e}"));
                continue;
            }
        };
        if !reply.ok() {
            out.fail(
                Some(i),
                format!("{:?} answered ok:false: {reply:?}", step.req),
            );
            continue;
        }
        let truth = if plan.workload == Workload::LiveEdit && !record.setup {
            live.get_or_insert_with(|| Truth::new(&plan.models[0]))
        } else {
            truths
                .entry(step.model)
                .or_insert_with(|| Truth::new(&plan.models[step.model]))
        };
        let result = check_one(plan, step, truth, &reply, &mut corrupt_pending);
        if let Err(e) = result {
            out.fail(
                Some(i),
                format!("{} {:?}: {e}", plan.models[step.model].name, step.req),
            );
        }
    }
    // The corpus verdicts: an observationally equivalent protocol must be
    // trace equivalent to its specification.
    for (index, model) in plan.models.iter().enumerate() {
        if let (Some((sys, spec, true)), Some(truth)) = (&model.known, truths.get_mut(&index)) {
            let (p, q) = (truth.index[sys], truth.index[spec]);
            if !truth.pair(Equivalence::Trace, p, q) {
                out.fail(
                    None,
                    format!("{}: oracle contradicts the corpus verdict", model.name),
                );
            }
        }
    }
    out
}

fn check_one(
    plan: &Plan,
    step: &Step,
    truth: &mut Truth,
    reply: &Val,
    corrupt_pending: &mut bool,
) -> Result<(), String> {
    let field = |key: &str| reply.get(key).ok_or_else(|| format!("reply lacks {key:?}"));
    match &step.req {
        Req::Open => {
            let states = field("states")?.as_i64();
            if states != Some(truth.fsp.num_states() as i64) {
                return Err(format!("states {states:?} != {}", truth.fsp.num_states()));
            }
        }
        Req::Classify(notion) => {
            let blocks = field("blocks")?
                .as_arr()
                .ok_or("blocks is not an array")?
                .iter()
                .map(|block| {
                    block
                        .as_arr()
                        .ok_or_else(|| "block is not an array".to_owned())?
                        .iter()
                        .map(|s| truth.state(s.as_str().ok_or("state is not a string")?))
                        .collect::<Result<Vec<_>, String>>()
                })
                .collect::<Result<Vec<_>, String>>()?;
            compare_blocks(blocks, truth.partition(*notion))?;
        }
        Req::Partition(notion) => {
            let mut blocks: Vec<Vec<usize>> = Vec::new();
            for (name, block) in field("assignment")?.as_obj().ok_or("assignment")? {
                let b = block.as_i64().ok_or("block is not a number")? as usize;
                if blocks.len() <= b {
                    blocks.resize(b + 1, Vec::new());
                }
                blocks[b].push(truth.state(name)?);
            }
            compare_blocks(blocks, truth.partition(*notion))?;
        }
        Req::Pair(notion, l, r) => {
            let (p, q) = (truth.state(l)?, truth.state(r)?);
            let mut expected = truth.pair(*notion, p, q);
            if std::mem::take(corrupt_pending) {
                expected = !expected;
            }
            let got = field("equivalent")?.as_bool();
            if got != Some(expected) {
                return Err(format!("verdict {got:?}, oracle says {expected}"));
            }
        }
        Req::Mutate(b) => {
            let batch = &plan.batches[*b];
            let resolve = |list: &[(String, String, String)]| -> Result<Vec<_>, String> {
                list.iter()
                    .map(|(f, l, t)| {
                        let label = match l.as_str() {
                            "tau" => Label::Tau,
                            name => Label::Act(truth.fsp.action_id(name).ok_or("unknown action")?),
                        };
                        Ok((
                            StateId::from_index(truth.state(f)?),
                            label,
                            StateId::from_index(truth.state(t)?),
                        ))
                    })
                    .collect()
            };
            let (add, remove) = (resolve(&batch.add)?, resolve(&batch.remove)?);
            let mut added: Vec<_> = add
                .iter()
                .filter(|&&(f, l, t)| !truth.fsp.has_transition(f, l, t))
                .collect();
            added.sort_unstable();
            added.dedup();
            let mut removed: Vec<_> = remove
                .iter()
                .filter(|e| !add.contains(e))
                .filter(|&&(f, l, t)| truth.fsp.has_transition(f, l, t))
                .collect();
            removed.sort_unstable();
            removed.dedup();
            let counts = (added.len() as i64, removed.len() as i64);
            truth.fsp.apply_edge_delta(&add, &remove);
            truth.partitions.clear();
            truth.pairs.clear();
            let got = (field("added")?.as_i64(), field("removed")?.as_i64());
            if got != (Some(counts.0), Some(counts.1)) {
                return Err(format!("effective edits {got:?}, oracle says {counts:?}"));
            }
        }
        Req::Close => {
            if field("closed")?.as_bool() != Some(true) {
                return Err("session was not closed".into());
            }
        }
    }
    Ok(())
}

fn compare_blocks(got: Vec<Vec<usize>>, expected: &Partition) -> Result<(), String> {
    let got = canonical(got.into_iter().filter(|b| !b.is_empty()).collect());
    let want = expected_blocks(expected);
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{} blocks, oracle has {} (block sets differ)",
            got.len(),
            want.len()
        ))
    }
}
