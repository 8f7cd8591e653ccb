//! Seeded input generation: netlists as `.bench` text, cells in the
//! paper's syntax, and the job lists each workload submits. The program
//! under test only ever sees this generated text.

use dynmos::netlist::generate::ripple_adder_bench_text;
use dynmos::protest::Json;

/// SplitMix64: a small, fixed PRNG so inputs depend on the seed alone.
struct Rng(u64);

impl Rng {
    /// A generator for `seed` (mixed with a per-stream `salt`).
    pub fn new(seed: u64, salt: u64) -> Self {
        Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// The `ripple_adder(bits)` netlist as `.bench` text.
fn adder_bench(bits: usize) -> String {
    ripple_adder_bench_text(bits)
}

/// The `array_multiplier(bits)` netlist as `.bench` text, gate for gate
/// and name for name (the netlist crate has a writer for the adder
/// only).
///
/// # Panics
///
/// Panics if `bits < 2`.
fn multiplier_bench(bits: usize) -> String {
    assert!(bits >= 2, "need at least two bits");
    let mut gates = String::new();
    let mut gate = |out: String, op: &str, ins: &[&str]| -> String {
        gates.push_str(&format!("{out} = {op}({})\n", ins.join(", ")));
        out
    };
    let pp: Vec<Vec<String>> = (0..bits)
        .map(|i| {
            (0..bits)
                .map(|j| {
                    gate(
                        format!("pp{i}_{j}"),
                        "AND",
                        &[&format!("a{j}"), &format!("b{i}")],
                    )
                })
                .collect()
        })
        .collect();
    let mut product: Vec<String> = Vec::with_capacity(2 * bits);
    let mut acc: Vec<String> = pp[0].clone();
    product.push(acc[0].clone());
    for (i, row) in pp.iter().enumerate().skip(1) {
        let mut next: Vec<String> = Vec::with_capacity(bits);
        let mut carry: Option<String> = None;
        for (j, rbit) in row.iter().enumerate() {
            let tag = format!("{i}_{j}");
            let (s, c) = match (acc.get(j + 1), &carry) {
                (Some(pv), Some(cv)) => {
                    let xy = gate(format!("fx{tag}"), "XOR", &[rbit, pv]);
                    let s = gate(format!("fs{tag}"), "XOR", &[&xy, cv]);
                    let g = gate(format!("fg{tag}"), "AND", &[rbit, pv]);
                    let p = gate(format!("fp{tag}"), "AND", &[&xy, cv]);
                    (s, gate(format!("fc{tag}"), "OR", &[&g, &p]))
                }
                (Some(x), None) | (None, Some(x)) => (
                    gate(format!("hs{tag}"), "XOR", &[rbit, x]),
                    gate(format!("hc{tag}"), "AND", &[rbit, x]),
                ),
                (None, None) => {
                    next.push(rbit.clone());
                    continue;
                }
            };
            next.push(s);
            carry = Some(c);
        }
        if let Some(cv) = carry {
            next.push(cv);
        }
        product.push(next[0].clone());
        acc = next;
    }
    product.extend(acc.into_iter().skip(1));
    let mut out = format!("# {bits}x{bits} array multiplier\n");
    for name in ["a", "b"] {
        for i in 0..bits {
            out.push_str(&format!("INPUT({name}{i})\n"));
        }
    }
    for p in &product {
        out.push_str(&format!("OUTPUT({p})\n"));
    }
    out.push_str(&gates);
    out
}

/// The paper's Fig. 9 cell, `u = a*(b+c) + d*e`, in its own syntax.
const FIG9: &str = "TECHNOLOGY domino-CMOS;
INPUT a,b,c,d,e;
OUTPUT u;
x1 := a*(b+c);
x2 := d*e;
u := x1+x2;
";

/// Read-once series-parallel switch networks, one shape per width
/// (placeholder `vK` is the K-th input after the seeded permutation).
/// Generation cost depends steeply on shape, so shapes are fixed per
/// width and only the input assignment varies with the seed.
const SHAPES: [(usize, &str); 6] = [
    (4, "(v0+v1)*(v2+v3)"),
    (6, "(v0+v1*v2)*(v3+v4*v5)"),
    (7, "v0*(v1+v2)+(v3+v4)*(v5+v6)"),
    (8, "(v0*v1+v2)*(v3+v4*v5)+v6*v7"),
    (9, "((v0+v1)*v2+v3*v4)*(v5+v6*(v7+v8))"),
    (10, "(v0+v4)*(v7+v2*v9*v5)*(v1+v3+v8*v6)"),
];

/// A domino cell of the given shape with inputs `i0..` assigned to the
/// shape's placeholders by a seeded permutation.
fn shaped_cell(rng: &mut Rng, width: usize, shape: &str) -> String {
    let perm = rng.permutation(width);
    let mut expr = shape.to_owned();
    // Highest placeholder first, so `v1` never rewrites part of `v10`.
    for k in (0..width).rev() {
        expr = expr.replace(&format!("v{k}"), &format!("i{}", perm[k]));
    }
    let inputs: Vec<String> = (0..width).map(|i| format!("i{i}")).collect();
    format!(
        "TECHNOLOGY domino-CMOS;\nINPUT {};\nOUTPUT z;\nz := {expr};\n",
        inputs.join(",")
    )
}

/// The cell of the given width (one of [`SHAPES`]).
fn cell_of_width(rng: &mut Rng, width: usize) -> String {
    let shape = SHAPES
        .iter()
        .find(|(w, _)| *w == width)
        .map(|(_, s)| *s)
        .expect("a shape exists for this width");
    shaped_cell(rng, width, shape)
}

/// How large the generated inputs are: `Full` for measurement, `Small`
/// for the counter tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// Tiny inputs that finish in well under a second.
    Small,
}

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Budget-bound weighted fsim and Monte Carlo on generated
    /// adder/multiplier netlists, journal off.
    FsimWeighted,
    /// Tiered testability on generated adders: BDD and cutting tiers.
    TestabilityTiers,
    /// Thousands of small mixed jobs on paper cells under a journal.
    JournalSmallJobs,
    /// One classic `faultlib --full` process per generated cell.
    LibraryCells,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::FsimWeighted,
        Workload::TestabilityTiers,
        Workload::JournalSmallJobs,
        Workload::LibraryCells,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FsimWeighted => "fsim_weighted",
            Workload::TestabilityTiers => "testability_tiers",
            Workload::JournalSmallJobs => "journal_small_jobs",
            Workload::LibraryCells => "library_cells",
        }
    }

    /// Whether the program runs every job of this workload on a single
    /// thread (BDD, cutting and library generation are serial). These
    /// run pinned to one CPU; the others use both CPUs of the `nproc` = 2
    /// they are sized for.
    pub fn single_threaded(self) -> bool {
        matches!(self, Workload::TestabilityTiers | Workload::LibraryCells)
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One job request, minus the `op`.
#[derive(Debug, Clone)]
pub(crate) struct Job {
    /// Job kind token.
    pub kind: &'static str,
    /// `bench` or `cell`.
    pub format: &'static str,
    /// Index into [`Session::netlists`].
    pub netlist: usize,
    /// Kernel parameters.
    pub params: Vec<(&'static str, Json)>,
}

/// A serve workload's inputs: the distinct netlists and the distinct
/// jobs; the client cycles through `jobs` in order.
#[derive(Debug, Clone)]
pub(crate) struct Session {
    /// Netlist texts.
    pub netlists: Vec<String>,
    /// Distinct jobs.
    pub jobs: Vec<Job>,
    /// `--leg-patterns` for the serve process (`None` = unsliced).
    pub leg_patterns: Option<u64>,
    /// Whether the session runs under `--journal`.
    pub journal: bool,
    /// Jobs per `serve` process. Every session has the same size, so
    /// its memory and (under a journal) its restart work do not grow
    /// with the speed of the program.
    pub jobs_per_session: usize,
    /// Jobs per latency window: whole passes over `jobs`, dividing
    /// `jobs_per_session`. Latency statistics are taken per window, so
    /// every window has the same job mix and the tail percentile the
    /// same sample count.
    pub window: usize,
    /// Jobs whose own tier census must count faults served by BDD and
    /// faults served by cutting.
    pub mixed_tiers: Vec<usize>,
}

impl Session {
    /// The submit request for distinct job `i`.
    pub fn request(&self, i: usize) -> Json {
        let job = &self.jobs[i];
        let mut members = vec![
            ("op".to_owned(), Json::str("submit")),
            ("kind".to_owned(), Json::str(job.kind)),
            ("format".to_owned(), Json::str(job.format)),
            (
                "netlist".to_owned(),
                Json::str(self.netlists[job.netlist].clone()),
            ),
        ];
        members.extend(job.params.iter().map(|(k, v)| ((*k).to_owned(), v.clone())));
        Json::Obj(members)
    }

    /// The `serve` arguments for this session (without `--journal`).
    pub fn serve_args(&self) -> Vec<String> {
        let mut args = vec!["serve".to_owned()];
        if let Some(n) = self.leg_patterns {
            args.extend(["--leg-patterns".to_owned(), n.to_string()]);
        }
        args
    }
}

fn probs_json(probs: &[f64]) -> Json {
    Json::Arr(probs.iter().map(|&p| Json::Num(p)).collect())
}

/// Biased weights around 1/16: every input is 1/32, 1/16 or 3/32, so
/// random patterns rarely propagate long carries or set partial
/// products, and no job reaches full coverage within its budget.
fn biased_probs(rng: &mut Rng, n: usize) -> Vec<f64> {
    const LEVELS: [f64; 3] = [0.03125, 0.0625, 0.09375];
    (0..n).map(|_| LEVELS[rng.below(3)]).collect()
}

/// Weights uniform in `[lo, hi)`.
fn probs_in(rng: &mut Rng, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..n).map(|_| lo + rng.unit() * (hi - lo)).collect()
}

/// Inputs of `ripple_adder(bits)`.
fn adder_inputs(bits: usize) -> usize {
    2 * bits + 1
}

/// The `fsim_weighted` session: `fsim` and `mc-detect` on the adder and
/// the multiplier, twelve seeded variants of each. `fsim` work stays
/// below the point where any job reaches full coverage, so every `fsim`
/// job is budget-bound.
fn fsim_weighted(seed: u64, scale: Scale) -> Session {
    let (adder, mult, div) = match scale {
        Scale::Full => (80, 10, 1),
        Scale::Small => (8, 4, 8),
    };
    let mut rng = Rng::new(seed, 1);
    let netlists = vec![adder_bench(adder), multiplier_bench(mult)];
    let inputs = [adder_inputs(adder), 2 * mult];
    let classes = [
        (0, "fsim", "patterns", 4096),
        (1, "fsim", "patterns", 1024),
        (0, "mc-detect", "samples", 256),
        (1, "mc-detect", "samples", 192),
    ];
    let mut jobs = Vec::new();
    for _ in 0..12 {
        for (net, kind, work, amount) in classes {
            jobs.push(Job {
                kind,
                format: "bench",
                netlist: net,
                params: vec![
                    (work, Json::num(amount / div)),
                    ("seed", Json::num(rng.next_u64() >> 12)),
                    ("probs", probs_json(&biased_probs(&mut rng, inputs[net]))),
                ],
            });
        }
    }
    Session {
        netlists,
        jobs_per_session: jobs.len(),
        window: jobs.len(),
        jobs,
        leg_patterns: None,
        journal: false,
        mixed_tiers: Vec::new(),
    }
}

/// Weights stay near 1/2 here: the cutting tier's cost depends on them
/// (their bound widths decide its Monte Carlo tightening), and runs with
/// different seeds must cost alike.
///
/// The `testability_tiers` session: `auto` at a node budget where BDD
/// and cutting both serve faults, `auto` at one where the good machine
/// overflows (all cutting), and a `bdd`-mode job; whole fault lists,
/// unsliced legs.
fn testability_tiers(seed: u64, scale: Scale) -> Session {
    let (wide, narrow, roomy, tight) = match scale {
        Scale::Full => (16, 12, 20_000u64, 2_000u64),
        // 25 inputs: past the exact tier's row cap, so `auto` goes
        // symbolic here too.
        Scale::Small => (12, 6, 6_000, 1_000),
    };
    let mut rng = Rng::new(seed, 2);
    let netlists = vec![adder_bench(wide), adder_bench(narrow)];
    let (mut jobs, mut mixed_tiers) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        for (net, mode, budget) in [
            (0, "auto", Some(roomy)),
            (0, "auto", Some(tight)),
            (1, "bdd", None),
        ] {
            let bits = [wide, narrow][net];
            let mut params = vec![
                ("mode", Json::str(mode)),
                ("seed", Json::num(rng.next_u64() >> 12)),
                (
                    "probs",
                    probs_json(&probs_in(&mut rng, adder_inputs(bits), 0.45, 0.55)),
                ),
            ];
            if let Some(nodes) = budget {
                params.push(("node_budget", Json::num(nodes)));
            }
            if budget == Some(roomy) {
                mixed_tiers.push(jobs.len());
            }
            jobs.push(Job {
                kind: "testability",
                format: "bench",
                netlist: net,
                params,
            });
        }
    }
    Session {
        netlists,
        jobs_per_session: 6 * jobs.len(),
        window: 6 * jobs.len(),
        jobs,
        leg_patterns: None,
        journal: false,
        mixed_tiers,
    }
}

/// The `journal_small_jobs` session: six kinds over three small cells,
/// two parameter variants each, under `--journal --leg-patterns 256`.
fn journal_small_jobs(seed: u64, scale: Scale) -> Session {
    let mut rng = Rng::new(seed, 3);
    let netlists = vec![
        FIG9.to_owned(),
        cell_of_width(&mut rng, 4),
        cell_of_width(&mut rng, 6),
    ];
    let inputs = [5usize, 4, 6];
    let mut jobs = Vec::new();
    for _ in 0..2 {
        for (net, &width) in inputs.iter().enumerate() {
            for kind in [
                "fsim",
                "mc-detect",
                "detect",
                "length",
                "testability",
                "atpg",
            ] {
                let mut params = Vec::new();
                match kind {
                    "fsim" => params.push(("patterns", Json::num(1024))),
                    "mc-detect" => params.push(("samples", Json::num(1024))),
                    "testability" => params.push(("mode", Json::str("auto"))),
                    "atpg" => params.push(("max_backtracks", Json::num(50))),
                    _ => {}
                }
                if kind != "atpg" {
                    params.push(("seed", Json::num(rng.next_u64() >> 12)));
                    params.push(("probs", probs_json(&probs_in(&mut rng, width, 0.25, 0.75))));
                }
                jobs.push(Job {
                    kind,
                    format: "cell",
                    netlist: net,
                    params,
                });
            }
        }
    }
    let window = 2 * jobs.len();
    Session {
        netlists,
        jobs,
        leg_patterns: Some(256),
        journal: true,
        jobs_per_session: match scale {
            Scale::Full => 7 * window,
            Scale::Small => window,
        },
        window,
        mixed_tiers: Vec::new(),
    }
}

/// The `library_cells` cell set: Fig. 9 plus one seeded cell per width
/// 4 and 6–10 (`Small`: Fig. 9 and widths 4 and 6).
pub(crate) fn library_cells(seed: u64, scale: Scale) -> Vec<String> {
    let mut rng = Rng::new(seed, 4);
    let widths: &[usize] = match scale {
        Scale::Full => &[4, 6, 7, 8, 9, 10],
        Scale::Small => &[4, 6],
    };
    let mut cells = vec![FIG9.to_owned()];
    cells.extend(widths.iter().map(|&w| cell_of_width(&mut rng, w)));
    // A seeded visiting order.
    let order = rng.permutation(cells.len());
    order.into_iter().map(|i| cells[i].clone()).collect()
}

/// The serve session of a serve workload (`None` for `library_cells`).
pub(crate) fn session(workload: Workload, seed: u64, scale: Scale) -> Option<Session> {
    match workload {
        Workload::FsimWeighted => Some(fsim_weighted(seed, scale)),
        Workload::TestabilityTiers => Some(testability_tiers(seed, scale)),
        Workload::JournalSmallJobs => Some(journal_small_jobs(seed, scale)),
        Workload::LibraryCells => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynmos::netlist::generate::array_multiplier;
    use dynmos::netlist::{parse_bench, parse_cell};

    #[test]
    fn multiplier_text_matches_the_generator() {
        for bits in [2usize, 3, 5] {
            let parsed = parse_bench(&multiplier_bench(bits)).expect("writer output parses");
            let built = array_multiplier(bits);
            assert_eq!(parsed.gates().len(), built.gates().len());
            assert_eq!(parsed.primary_outputs().len(), 2 * bits);
            let mut rng = Rng::new(bits as u64, 9);
            for _ in 0..8 {
                let words: Vec<u64> = (0..2 * bits).map(|_| rng.next_u64()).collect();
                assert_eq!(
                    parsed.eval_packed(&words),
                    built.eval_packed(&words),
                    "bits={bits}"
                );
            }
        }
    }

    #[test]
    fn generated_cells_parse_and_depend_only_on_the_seed() {
        for w in Workload::ALL {
            let a = format!("{:?}", session(w, 7, Scale::Full));
            assert_eq!(a, format!("{:?}", session(w, 7, Scale::Full)));
        }
        let cells = library_cells(3, Scale::Full);
        assert_eq!(cells, library_cells(3, Scale::Full));
        assert_ne!(cells, library_cells(4, Scale::Full));
        for text in cells
            .iter()
            .chain(&journal_small_jobs(5, Scale::Full).netlists)
        {
            parse_cell("cell", text).expect("generated cell parses");
        }
    }
}
