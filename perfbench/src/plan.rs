//! Seeded workloads: the models, the request schedule, and nothing else.
//! The server only ever sees the request lines rendered from a [`Plan`];
//! the oracle and the traced replay rebuild their inputs from the same plan.

use ccs_equiv::Equivalence;
use ccs_fsp::{format, Fsp, Label, StateId};
use ccs_workloads::{families, mutating_queries, protocols, random};

use crate::json::quote;

/// The three request mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fresh random general processes (and star expressions), classified
    /// and queried under strong and observational equivalence.
    Branching,
    /// Fresh determinization-heavy models queried under trace, failure and
    /// language equivalence.
    LinearTime,
    /// One long-lived session under a stream of τ-free edit batches.
    LiveEdit,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Branching,
        Workload::LinearTime,
        Workload::LiveEdit,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Branching => "branching",
            Workload::LinearTime => "linear-time",
            Workload::LiveEdit => "live-edit",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How a model is sent in its `open` request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    Fsp,
    Ccs,
}

/// One model the workload opens.
#[derive(Clone, Debug)]
pub struct Model {
    pub name: String,
    pub format: Format,
    /// The `text` field of the `open` request.
    pub text: String,
    /// The whole `open` request line, rendered once.
    pub open_line: String,
    /// Start states of the two halves of a protocol union, and whether the
    /// corpus says they are observationally equivalent.
    pub known: Option<(String, String, bool)>,
}

/// One request of the schedule.  `model` indexes [`Plan::models`]; the
/// session handle is filled in from the latest `open` reply when the line is
/// rendered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Req {
    Open,
    Classify(Equivalence),
    Partition(Equivalence),
    Pair(Equivalence, String, String),
    Mutate(usize),
    Close,
}

#[derive(Clone, Debug)]
pub struct Step {
    pub model: usize,
    pub req: Req,
}

/// One edit batch, by state and action name.
#[derive(Clone, Debug, Default)]
pub struct Batch {
    pub add: Vec<(String, String, String)>,
    pub remove: Vec<(String, String, String)>,
}

/// Everything one run sends, in order: `setup` once per set-up, then
/// `cycle` repeated.  A pool workload (`branching`, `linear-time`) repeats
/// whole passes of its cycle, so every run of a seed measures the same
/// models; `live-edit` runs its long edit stream until the time is up.
#[derive(Clone, Debug)]
pub struct Plan {
    pub workload: Workload,
    pub models: Vec<Model>,
    pub batches: Vec<Batch>,
    pub setup: Vec<Step>,
    pub cycle: Vec<Step>,
}

/// Input sizes: `full` for measurement, `smoke` for the seconds-long
/// self-test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// splitmix64: the benchmark's own seeded stream, so inputs depend on the
/// seed argument and on nothing else.
#[derive(Clone, Debug)]
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_ccb5_0000_0000)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

impl Plan {
    pub fn new(workload: Workload, seed: u64, size: Size) -> Plan {
        match workload {
            Workload::Branching => branching(seed, size),
            Workload::LinearTime => linear_time(seed, size),
            Workload::LiveEdit => live_edit(seed, size),
        }
    }

    /// The request line for `step`, against session handle `session`.
    pub fn line(&self, step: &Step, session: &str) -> String {
        let s = quote(session);
        match &step.req {
            Req::Open => self.models[step.model].open_line.clone(),
            Req::Classify(n) => format!(r#"{{"op":"classify","session":{s},"notion":"{n}"}}"#),
            Req::Partition(n) => format!(r#"{{"op":"partition","session":{s},"notion":"{n}"}}"#),
            Req::Pair(n, l, r) => format!(
                r#"{{"op":"pair","session":{s},"notion":"{n}","left":{},"right":{}}}"#,
                quote(l),
                quote(r)
            ),
            Req::Mutate(b) => {
                let edges = |list: &[(String, String, String)]| {
                    let items: Vec<String> = list
                        .iter()
                        .map(|(f, l, t)| format!("[{},{},{}]", quote(f), quote(l), quote(t)))
                        .collect();
                    format!("[{}]", items.join(","))
                };
                let batch = &self.batches[*b];
                format!(
                    r#"{{"op":"mutate","session":{s},"add":{},"remove":{}}}"#,
                    edges(&batch.add),
                    edges(&batch.remove)
                )
            }
            Req::Close => format!(r#"{{"op":"close","session":{s}}}"#),
        }
    }
}

fn model(name: String, format: Format, text: String) -> Model {
    let kind = match format {
        Format::Fsp => "fsp",
        Format::Ccs => "ccs",
    };
    let open_line = format!(
        r#"{{"op":"open","format":"{kind}","text":{}}}"#,
        quote(&text)
    );
    Model {
        name,
        format,
        text,
        open_line,
        known: None,
    }
}

/// State names as the server reports them (`classify` blocks, `pair`
/// arguments): the declared name, else `s<i>`.
pub fn state_names(fsp: &Fsp) -> Vec<String> {
    fsp.state_ids().map(|s| fsp.state_label(s)).collect()
}

/// The process a model denotes, built the way the server builds it.
pub fn model_fsp(model: &Model) -> Fsp {
    match model.format {
        Format::Fsp => format::parse(&model.text).expect("generated model text parses"),
        Format::Ccs => ccs_expr::construct::representative(
            &ccs_expr::parse(&model.text).expect("generated expression parses"),
        ),
    }
}

fn uniform_pairs(names: &[String], count: usize, rng: &mut Rng) -> Vec<(String, String)> {
    (0..count)
        .map(|_| {
            let l = rng.below(names.len());
            let r = rng.below(names.len());
            (names[l].clone(), names[r].clone())
        })
        .collect()
}

/// A random star expression over four actions with `leaves` action
/// occurrences.  Stars only wrap small subterms, which keeps the
/// representative's transition count near-linear.
fn random_expr(leaves: usize, rng: &mut Rng) -> String {
    if leaves == 1 {
        return ["a", "b", "c", "d"][rng.below(4)].to_owned();
    }
    let left = 1 + rng.below(leaves - 1);
    let l = random_expr(left, rng);
    let r = random_expr(leaves - left, rng);
    let joined = if rng.below(5) < 3 {
        format!("{l}.{r}")
    } else {
        format!("({l} + {r})")
    };
    if leaves <= 4 && rng.below(4) == 0 {
        format!("({joined})*")
    } else {
        joined
    }
}

const BRANCHING_PAIRS: usize = 3;

fn branching(seed: u64, size: Size) -> Plan {
    let mut rng = Rng::new(seed);
    // A fixed size ladder, walked in a fixed order: the seed changes each
    // model's structure, never which sizes a run of a given length sees.
    // Every fourth model is a star expression.
    let (ladder, expr_leaves): (&[usize], usize) = match size {
        Size::Full => (&[1024, 512, 1536, 2048, 768, 1280], 400),
        Size::Smoke => (&[48, 32, 64], 16),
    };
    let mut models = Vec::new();
    let mut cycle = Vec::new();
    let mut ladder = ladder.iter();
    for slot in 0.. {
        let m = if slot % 4 == 3 {
            let expr = random_expr(expr_leaves, &mut rng);
            model(format!("ccs-{slot}"), Format::Ccs, expr)
        } else {
            let Some(&states) = ladder.next() else { break };
            let fsp = random::random_fsp(&random::RandomConfig {
                states,
                // Two transitions per state keeps the τ-graph just below the
                // giant-SCC threshold: the weak closure still dominates
                // `classify`, but its size varies about 2.5× between seeds
                // instead of 4× at the generator's default 2.5.
                transitions_per_state: 2.0,
                tau_ratio: 0.3,
                accept_ratio: 0.5,
                seed: rng.next_u64(),
                ..random::RandomConfig::default()
            });
            model(
                format!("random-{states}"),
                Format::Fsp,
                format::to_text(&fsp),
            )
        };
        let names = state_names(&model_fsp(&m));
        let index = models.len();
        models.push(m);
        let step = |req| Step { model: index, req };
        cycle.push(step(Req::Open));
        cycle.push(step(Req::Classify(Equivalence::Observational)));
        cycle.push(step(Req::Classify(Equivalence::Strong)));
        for notion in [Equivalence::Observational, Equivalence::Strong] {
            for (l, r) in uniform_pairs(&names, BRANCHING_PAIRS, &mut rng) {
                cycle.push(step(Req::Pair(notion, l, r)));
            }
        }
        cycle.push(step(Req::Close));
    }
    Plan {
        workload: Workload::Branching,
        models,
        batches: Vec::new(),
        setup: Vec::new(),
        cycle,
    }
}

/// `prefix`-renamed copy of `fsp` as `trans`/`ext` text lines, so two
/// processes can be written into one union model with disjoint names.
fn prefixed_text(fsp: &Fsp, prefix: &str, out: &mut String) {
    let name = |s: StateId| format!("{prefix}{}", fsp.state_label(s).replace(' ', "_"));
    out.push_str(&format!(
        "state {}\n",
        fsp.state_ids().map(name).collect::<Vec<_>>().join(" ")
    ));
    for s in fsp.state_ids() {
        for &v in fsp.extensions(s) {
            out.push_str(&format!("ext {} {}\n", name(s), fsp.var_name(v)));
        }
    }
    for (from, label, to) in fsp.all_transitions() {
        let action = match label {
            Label::Tau => "tau",
            Label::Act(a) => fsp.action_name(a),
        };
        out.push_str(&format!("trans {} {action} {}\n", name(from), name(to)));
    }
}

const LINEAR_PAIRS: usize = 2;

fn linear_time(seed: u64, size: Size) -> Plan {
    let mut rng = Rng::new(seed);
    let (blowups, corpus): (&[(usize, usize)], Vec<protocols::Protocol>) = match size {
        Size::Full => (&[(1024, 10), (1024, 12), (1536, 11)], protocols::corpus()),
        Size::Smoke => (
            &[(64, 5)],
            vec![
                protocols::alternating_bit(1),
                protocols::alternating_bit_premature_ack(1),
            ],
        ),
    };
    // Blow-up models (on-the-fly pair route) alternate with protocol unions
    // (coalesced pair route).
    let mut models = Vec::new();
    let mut pair_lists = Vec::new();
    for i in 0..blowups.len().max(corpus.len()) {
        if let Some(&(n, window)) = blowups.get(i) {
            let fsp = families::det_blowup(n, window);
            let names = state_names(&fsp);
            // The two core heads, then uniform pairs.
            let mut list = vec![(names[0].clone(), names[window + 1].clone())];
            list.extend(uniform_pairs(&names, LINEAR_PAIRS - 1, &mut rng));
            let text = format::to_text(&fsp);
            models.push(model(format!("blowup-{n}-w{window}"), Format::Fsp, text));
            pair_lists.push(list);
        }
        if let Some(p) = corpus.get(i) {
            let system = p.composed_minimized();
            let mut text = String::new();
            prefixed_text(&system, "sys_", &mut text);
            prefixed_text(&p.spec, "spec_", &mut text);
            let sys_start = format!("sys_{}", system.state_label(system.start()));
            let spec_start = format!("spec_{}", p.spec.state_label(p.spec.start()));
            let mut m = model(format!("union-{}", p.name), Format::Fsp, text);
            m.known = Some((sys_start.clone(), spec_start.clone(), p.equivalent));
            let names = state_names(&model_fsp(&m));
            let mut list = vec![(sys_start, spec_start)];
            list.extend(uniform_pairs(&names, LINEAR_PAIRS - 1, &mut rng));
            models.push(m);
            pair_lists.push(list);
        }
    }
    let mut cycle = Vec::new();
    for (index, list) in pair_lists.into_iter().enumerate() {
        let step = |req| Step { model: index, req };
        cycle.push(step(Req::Open));
        for notion in [
            Equivalence::Trace,
            Equivalence::Failure,
            Equivalence::Language,
        ] {
            for (l, r) in &list {
                cycle.push(step(Req::Pair(notion, l.clone(), r.clone())));
            }
        }
        cycle.push(step(Req::Classify(Equivalence::Language)));
        cycle.push(step(Req::Classify(Equivalence::Failure)));
        cycle.push(step(Req::Close));
    }
    Plan {
        workload: Workload::LinearTime,
        models,
        batches: Vec::new(),
        setup: Vec::new(),
        cycle,
    }
}

/// Batches in one pass of the live-edit stream, pairs per notion after each
/// batch, and the `partition` period.
const LIVE_BATCHES: usize = 400;
const LIVE_PAIRS: usize = 3;
const LIVE_PARTITION_EVERY: usize = 4;

fn live_edit(seed: u64, size: Size) -> Plan {
    let (copies, batches) = match size {
        Size::Full => (1024, LIVE_BATCHES),
        Size::Smoke => (16, 24),
    };
    let ones = mutating_queries::mutating_workload(copies, batches / 2, 1, 64, seed);
    let fours = mutating_queries::mutating_workload(copies, batches / 2, 4, 0, seed ^ 1);
    let fsp = &ones.fsp;
    let names = state_names(fsp);
    let named = |edges: &[(StateId, Label, StateId)]| {
        edges
            .iter()
            .map(|&(f, l, t)| {
                let action = match l {
                    Label::Tau => "tau".to_owned(),
                    Label::Act(a) => fsp.action_name(a).to_owned(),
                };
                (names[f.index()].clone(), action, names[t.index()].clone())
            })
            .collect::<Vec<_>>()
    };
    let batches: Vec<Batch> = ones
        .batches
        .iter()
        .zip(&fours.batches)
        .flat_map(|(one, four)| [one, four])
        .map(|b| Batch {
            add: named(&b.additions),
            remove: named(&b.removals),
        })
        .collect();
    let text = format::to_text(fsp);
    let models = vec![model(
        format!("gadgets-{}", fsp.num_states()),
        Format::Fsp,
        text,
    )];
    let step = |req| Step { model: 0, req };
    let setup = vec![
        step(Req::Open),
        step(Req::Classify(Equivalence::Strong)),
        step(Req::Classify(Equivalence::Observational)),
    ];
    let mut queries = ones.queries.iter().cycle();
    let mut cycle = Vec::new();
    for b in 0..batches.len() {
        cycle.push(step(Req::Mutate(b)));
        for notion in [Equivalence::Strong, Equivalence::Observational] {
            for _ in 0..LIVE_PAIRS {
                let &(p, q) = queries.next().expect("non-empty query mix");
                cycle.push(step(Req::Pair(
                    notion,
                    names[p.index()].clone(),
                    names[q.index()].clone(),
                )));
            }
        }
        if b % LIVE_PARTITION_EVERY == 0 {
            cycle.push(step(Req::Partition(Equivalence::Strong)));
        }
    }
    Plan {
        workload: Workload::LiveEdit,
        models,
        batches,
        setup,
        cycle,
    }
}
