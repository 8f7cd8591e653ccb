//! Criterion benches, one group per paper experiment.
//!
//! These measure the computational kernels behind each regenerated table
//! and figure; the tables themselves are printed by the `experiments`
//! binary (`cargo run --release -p dynmos-bench --bin experiments`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dynmos_core::{validate_cell, FaultLibrary, FaultUniverse};
use dynmos_logic::{min_dnf, TruthTable};
use dynmos_netlist::generate::{
    and_or_tree, array_multiplier, c17_dynamic_nmos, carry_chain, domino_wide_and, fig9_cell,
    random_domino_cell, ripple_adder, single_cell_network,
};
use dynmos_netlist::{parse_cell, Network, PackedEvaluator};
use dynmos_protest::FaultEntry;
use dynmos_protest::{
    detection_probabilities, mc_signal_probability, network_fault_list,
    optimize_input_probabilities, signal_probabilities, stuck_fault_list, test_length,
    DetectionEngine, FaultSimulator, Parallelism, PatternSource, RunBudget, TestabilityConfig,
    TierMode,
};
use dynmos_switch::gates::{domino_gate, static_nor2};
use dynmos_switch::{contention, FaultSet, Logic, RcParams, Sim, SwitchFault};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// E1: one full settle of the faulty static NOR (the Fig. 1 kernel).
fn bench_e1_static_nor(c: &mut Criterion) {
    let nor = static_nor2();
    let faults = FaultSet::single(SwitchFault::StuckOpen(nor.pulldown_a));
    c.bench_function("e1_fig1_faulty_nor_settle", |b| {
        b.iter(|| {
            let mut sim = Sim::with_faults(&nor.circuit, faults.clone());
            sim.preset_charge(nor.z, Logic::One);
            sim.set_input(nor.a, Logic::One);
            sim.set_input(nor.b, Logic::Zero);
            sim.settle();
            std::hint::black_box(sim.level(nor.z))
        })
    });
}

/// E2: the RC contention analysis (the Fig. 2 kernel).
fn bench_e2_contention(c: &mut Criterion) {
    let params = RcParams::typical();
    c.bench_function("e2_fig2_contention_sweep", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for ratio in [10.0, 6.0, 4.0, 3.0, 2.5, 2.0, 1.5, 1.0] {
                let out = contention(ratio * 10_000.0, 10_000.0, 1.0, params);
                if out.settle_time.is_finite() {
                    acc += out.settle_time;
                }
            }
            std::hint::black_box(acc)
        })
    });
}

/// E3/E4: a full domino precharge/evaluate cycle at switch level.
fn bench_e3_domino_cycle(c: &mut Criterion) {
    let cell = fig9_cell();
    let gate = domino_gate(cell.transmission(), 5).expect("fig9 is positive SP");
    c.bench_function("e3_fig4_domino_cycle", |b| {
        b.iter(|| {
            let mut sim = Sim::new(&gate.circuit);
            std::hint::black_box(gate.evaluate(&mut sim, 0b00011))
        })
    });
}

/// E5: complete switch-level validation of one cell (all faults, all
/// histories, exhaustive inputs).
fn bench_e5_theorem_validation(c: &mut Criterion) {
    let cell = random_domino_cell(1, 4, 6);
    c.bench_function("e5_validate_cell_4x6", |b| {
        b.iter(|| std::hint::black_box(validate_cell(&cell)).all_combinational())
    });
}

/// E6/E10: fault library generation vs switch count (the section-5
/// "a few seconds per gate" claim).
fn bench_e6_e10_library_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_library_generation");
    for switches in [4usize, 6, 8, 10, 12, 14] {
        let cell = random_domino_cell(2000 + switches as u64, (switches / 2).clamp(2, 6), switches);
        group.bench_with_input(BenchmarkId::from_parameter(switches), &cell, |b, cell| {
            b.iter(|| {
                std::hint::black_box(FaultLibrary::generate(cell))
                    .classes()
                    .len()
            })
        });
    }
    // The random cells above have at most 6 inputs; the benchmark's 8-
    // and 10-input domino shapes reach the minimizer's expensive regime.
    for (inputs, function) in [
        (8, "(i0*i1+i2)*(i3+i4*i5)+i6*i7"),
        (10, "(i0+i4)*(i7+i2*i9*i5)*(i1+i3+i8*i6)"),
    ] {
        let names: Vec<String> = (0..inputs).map(|i| format!("i{i}")).collect();
        let text = format!(
            "TECHNOLOGY domino-CMOS; INPUT {}; OUTPUT z; z := {function};",
            names.join(",")
        );
        let cell = parse_cell("shape", &text).expect("shape cell parses");
        group.bench_with_input(BenchmarkId::new("shape_full", inputs), &cell, |b, cell| {
            b.iter(|| {
                std::hint::black_box(FaultLibrary::generate_with(cell, FaultUniverse::full()))
                    .classes()
                    .len()
            })
        });
        // The minimizer alone: every table the 10-input library minimizes.
        if inputs == 10 {
            let lib = FaultLibrary::generate_with(&cell, FaultUniverse::full());
            let tables: Vec<TruthTable> = std::iter::once(lib.fault_free_table())
                .chain(lib.classes().iter().map(|c| &c.table))
                .cloned()
                .collect();
            group.bench_with_input(BenchmarkId::new("min_dnf", inputs), &tables, |b, tables| {
                b.iter(|| tables.iter().map(|t| min_dnf(t).len()).sum::<usize>())
            });
        }
    }
    group.finish();
    // The paper's own gate, for the record.
    c.bench_function("e6_fig9_library_generation", |b| {
        let cell = fig9_cell();
        b.iter(|| {
            std::hint::black_box(FaultLibrary::generate(&cell))
                .classes()
                .len()
        })
    });
}

/// E7: the PROTEST pipeline stages.
fn bench_e7_protest(c: &mut Criterion) {
    let net = c17_dynamic_nmos();
    let faults = network_fault_list(&net);
    let uniform = vec![0.5f64; 5];
    c.bench_function("e7_signal_probabilities_c17", |b| {
        b.iter(|| std::hint::black_box(signal_probabilities(&net, &uniform)))
    });
    c.bench_function("e7_detection_probabilities_c17", |b| {
        b.iter(|| std::hint::black_box(detection_probabilities(&net, &faults, &uniform)))
    });
    c.bench_function("e7_test_length_c17", |b| {
        let det = detection_probabilities(&net, &faults, &uniform);
        b.iter(|| std::hint::black_box(test_length(&det, 0.999)))
    });
    let wide = single_cell_network(domino_wide_and(8));
    let wide_faults = network_fault_list(&wide);
    c.bench_function("e7_optimize_inputs_wide_and_8", |b| {
        b.iter(|| {
            std::hint::black_box(optimize_input_probabilities(&wide, &wide_faults, 0.999, 4))
                .optimized_length
        })
    });
    // Ablation: enumeration vs BDD vs Monte Carlo for one detection
    // probability on the same circuit.
    let fault = &faults[0].fault;
    c.bench_function("e7_detection_exact_enumeration", |b| {
        b.iter(|| {
            std::hint::black_box(dynmos_protest::exact_detection_probability(
                &net, fault, &uniform,
            ))
        })
    });
    c.bench_function("e7_detection_bdd", |b| {
        b.iter(|| {
            let mut engine =
                DetectionEngine::new(&net, &faults[..1], TestabilityConfig::new(TierMode::Bdd));
            std::hint::black_box(engine.estimates(&uniform, &RunBudget::unlimited()))
        })
    });
    c.bench_function("e7_detection_monte_carlo_10k", |b| {
        b.iter(|| {
            std::hint::black_box(dynmos_protest::mc_detection_probability(
                &net, fault, &uniform, 7, 10_000,
            ))
            .value
        })
    });
}

/// E8: A2-coverage measurement kernel (packed all-net evaluation).
fn bench_e8_a2_coverage(c: &mut Criterion) {
    let net = and_or_tree(3);
    let mut src = PatternSource::uniform(1, 8);
    c.bench_function("e8_packed_all_net_eval_tree3", |b| {
        let batch = src.next_batch();
        b.iter(|| std::hint::black_box(net.eval_packed_all(&batch, None)))
    });
}

/// E9: deterministic test generation for one fault list.
fn bench_e9_atpg(c: &mut Criterion) {
    let net = c17_dynamic_nmos();
    let faults = network_fault_list(&net);
    c.bench_function("e9_podem_test_set_c17", |b| {
        b.iter(|| {
            std::hint::black_box(dynmos_atpg::generate_test_set(&net, &faults, 0))
                .tests
                .len()
        })
    });
}

/// E11: the at-speed detection matrix.
fn bench_e11_at_speed_matrix(c: &mut Criterion) {
    c.bench_function("e11_at_speed_matrix", |b| {
        b.iter(|| std::hint::black_box(dynmos_bench::e11::matrix()).len())
    });
}

/// E12: pattern-parallel fault simulation throughput (the ablation
/// baseline is the same run without 64-way packing, measured as the
/// per-pattern variant).
fn bench_e12_fault_simulation(c: &mut Criterion) {
    let net = c17_dynamic_nmos();
    let faults = network_fault_list(&net);
    let sim = FaultSimulator::new(&net);
    c.bench_function("e12_fsim_parallel_1024_patterns", |b| {
        b.iter(|| {
            let mut src = PatternSource::uniform(9, 5);
            std::hint::black_box(sim.run_random(&faults, &mut src, 1024)).coverage()
        })
    });
    // Serial ablation: one pattern per batch via run_patterns.
    c.bench_function("e12_fsim_serial_1024_patterns", |b| {
        let mut src = PatternSource::uniform(9, 5);
        let patterns: Vec<Vec<bool>> = (0..1024).map(|_| src.next_pattern()).collect();
        b.iter(|| {
            let mut covered = 0usize;
            for p in &patterns {
                let out = sim.run_patterns(&faults, std::slice::from_ref(p));
                covered += out.detected_at.iter().filter(|d| d.is_some()).count();
            }
            std::hint::black_box(covered)
        })
    });
}

/// The legacy serial-fault kernel: full interpretive re-simulation of the
/// whole network per fault per batch (the pre-compiled-tape
/// `run_random`). Kept verbatim as the baseline of the
/// `fsim_patterns_per_sec` comparison so the compiled/cone speedup stays
/// reproducible.
fn legacy_run_random(
    net: &Network,
    faults: &[FaultEntry],
    source: &mut PatternSource,
    max_patterns: u64,
) -> usize {
    let po_project = |values: &[u64]| -> Vec<u64> {
        net.primary_outputs()
            .iter()
            .map(|po| values[po.index()])
            .collect()
    };
    let mut detected = 0usize;
    let mut live: Vec<usize> = (0..faults.len()).collect();
    let mut applied = 0u64;
    while !live.is_empty() && applied < max_patterns {
        let batch = source.next_batch();
        let good = po_project(&net.eval_packed_all_reference(&batch, None));
        live.retain(|&fi| {
            let bad = po_project(&net.eval_packed_all_reference(&batch, Some(&faults[fi].fault)));
            let differ = good
                .iter()
                .zip(&bad)
                .fold(0u64, |acc, (g, b)| acc | (g ^ b));
            if differ != 0 {
                detected += 1;
                false
            } else {
                true
            }
        });
        applied += 64;
    }
    detected
}

/// The compiled/cone-incremental kernel vs the legacy interpreter on the
/// same workload: 1024 random patterns against the full fault list, with
/// fault dropping. Throughput is patterns per second.
fn bench_fsim_throughput(c: &mut Criterion) {
    let patterns = 1024u64;
    for (name, net) in [
        ("c17", c17_dynamic_nmos()),
        ("carry_chain_8", carry_chain(8)),
        ("carry_chain_16", carry_chain(16)),
    ] {
        let faults = network_fault_list(&net);
        let n = net.primary_inputs().len();
        let sim = FaultSimulator::new(&net);
        let mut group = c.benchmark_group(format!("fsim_patterns_per_sec/{name}"));
        group.throughput(Throughput::Elements(patterns));
        group.bench_function("compiled", |b| {
            b.iter(|| {
                let mut src = PatternSource::uniform(9, n);
                std::hint::black_box(sim.run_random(&faults, &mut src, patterns)).coverage()
            })
        });
        group.bench_function("legacy", |b| {
            b.iter(|| {
                let mut src = PatternSource::uniform(9, n);
                std::hint::black_box(legacy_run_random(&net, &faults, &mut src, patterns))
            })
        });
        group.finish();
    }
    // ISCAS-scale circuits (stuck-at lists; the legacy interpreter is
    // omitted — it is minutes per run at this size): serial vs sharded.
    // Heavily biased weighted patterns (p = 1/16, a dyadic weight the
    // bit-sliced generator realizes exactly) keep a hard-fault tail live
    // through the whole budget, so the measurement is sustained
    // simulation throughput, not first-batch setup: under uniform
    // patterns every stuck-at fault here drops within one 64-lane batch.
    for (name, net) in [
        ("ripple_adder_80", ripple_adder(80)),
        ("array_mult_8", array_multiplier(8)),
    ] {
        let faults = stuck_fault_list(&net);
        let n = net.primary_inputs().len();
        {
            // The throughput accounting below assumes the full budget
            // runs; verify the workload really is budget-bound.
            let mut src = PatternSource::new(9, vec![0.0625; n]);
            let probe = FaultSimulator::with_parallelism(&net, Parallelism::Serial)
                .run_random(&faults, &mut src, patterns);
            assert_eq!(probe.patterns_applied, patterns, "{name} exited early");
        }
        let mut group = c.benchmark_group(format!("fsim_patterns_per_sec/{name}"));
        group.throughput(Throughput::Elements(patterns));
        for (label, par) in [
            ("serial", Parallelism::Serial),
            ("threads2", Parallelism::Fixed(2)),
            ("threads4", Parallelism::Fixed(4)),
        ] {
            let sim = FaultSimulator::with_parallelism(&net, par);
            group.bench_function(label, |b| {
                b.iter(|| {
                    let mut src = PatternSource::new(9, vec![0.0625; n]);
                    std::hint::black_box(sim.run_random(&faults, &mut src, patterns)).coverage()
                })
            });
        }
        group.finish();
    }
}

/// One packed word of 64 weighted coin flips, drawn bit by bit — the
/// PR-1 generator, kept verbatim as the baseline of the bit-sliced
/// comparison recorded in `BENCH_fsim.json`.
fn per_bit_weighted_word(rng: &mut StdRng, p: f64) -> u64 {
    if (p - 0.5).abs() < 1e-12 {
        rng.gen::<u64>()
    } else {
        let mut w = 0u64;
        for lane in 0..64 {
            if rng.gen_bool(p) {
                w |= 1 << lane;
            }
        }
        w
    }
}

/// A Monte Carlo signal-probability run driven by the per-bit baseline
/// generator (same evaluator, same sample count as the bit-sliced path).
fn per_bit_mc_signal(net: &Network, probs: &[f64], seed: u64, samples: u64) -> f64 {
    const WIDTH: usize = 4;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ev = PackedEvaluator::with_width(net, WIDTH);
    let target = net.primary_outputs()[0];
    let mut batch = vec![0u64; probs.len() * WIDTH];
    let mut hits = 0u64;
    let mut drawn = 0u64;
    while drawn < samples {
        for (i, &p) in probs.iter().enumerate() {
            for w in 0..WIDTH {
                batch[i * WIDTH + w] = per_bit_weighted_word(&mut rng, p);
            }
        }
        let values = ev.eval(&batch);
        for w in 0..WIDTH {
            if drawn >= samples {
                break;
            }
            let lanes = (samples - drawn).min(64);
            let mask = if lanes == 64 {
                u64::MAX
            } else {
                (1u64 << lanes) - 1
            };
            hits += (values[target.index() * WIDTH + w] & mask).count_ones() as u64;
            drawn += lanes;
        }
    }
    hits as f64 / samples as f64
}

/// Best-of-3 wall-clock of `f`, in seconds.
fn time_best3(mut f: impl FnMut()) -> f64 {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Measures the fault-simulation and weighted-generation kernels and
/// writes the machine-readable `BENCH_fsim.json` at the workspace root —
/// the perf-trajectory record CI validates. Runs on every unfiltered
/// bench invocation (it is cheap: a few hundred milliseconds) and on a
/// filtered one whose filter is a substring of `fsim_json`, so
/// `cargo bench -p dynmos-bench --bench paper_benches -- fsim_json` runs
/// it alone.
///
/// The fault-simulation rows use the same biased weighted patterns
/// (p = 1/16) as the `fsim_patterns_per_sec` groups, so runs are
/// budget-bound and `patterns_per_sec` reflects sustained throughput;
/// `patterns` records the patterns actually applied, and the rate is
/// computed from that count, never from the nominal budget.
fn bench_fsim_json(_c: &mut Criterion) {
    // The criterion shim's filter: the first positional argument.
    let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    if filter.is_some_and(|f| !"fsim_json".contains(f.as_str())) {
        return;
    }
    let patterns = 2048u64;
    let mut rows = String::new();
    for (name, net, faults) in [
        {
            let net = c17_dynamic_nmos();
            let faults = network_fault_list(&net);
            ("c17", net, faults)
        },
        {
            let net = carry_chain(16);
            let faults = network_fault_list(&net);
            ("carry_chain_16", net, faults)
        },
        {
            let net = ripple_adder(80);
            let faults = stuck_fault_list(&net);
            ("ripple_adder_80", net, faults)
        },
        {
            let net = array_multiplier(8);
            let faults = stuck_fault_list(&net);
            ("array_mult_8", net, faults)
        },
    ] {
        let n = net.primary_inputs().len();
        for (mode, threads, par) in [
            ("serial", 1usize, Parallelism::Serial),
            ("parallel", 2, Parallelism::Fixed(2)),
            ("parallel", 4, Parallelism::Fixed(4)),
        ] {
            let sim = FaultSimulator::with_parallelism(&net, par);
            let mut applied = 0u64;
            let secs = time_best3(|| {
                let mut src = PatternSource::new(9, vec![0.0625; n]);
                let out = sim.run_random(&faults, &mut src, patterns);
                applied = out.patterns_applied;
                std::hint::black_box(out.coverage());
            });
            let pps = applied as f64 / secs.max(1e-12);
            if !rows.is_empty() {
                rows.push_str(",\n");
            }
            rows.push_str(&format!(
                "    {{\"circuit\": \"{name}\", \"gates\": {}, \"faults\": {}, \
                 \"mode\": \"{mode}\", \"threads\": {threads}, \
                 \"patterns\": {applied}, \"seconds\": {secs:.6}, \
                 \"patterns_per_sec\": {pps:.1}}}",
                net.gates().len(),
                faults.len(),
            ));
        }
    }

    // Few-fault rows: the pattern-axis regime (faults < threads), the
    // workload fault sharding cannot speed up at all. Probe the adder
    // serially and keep the hardest (latest-detected or escaping) faults
    // so the runs stay budget-bound like the full-list rows above.
    {
        let net = ripple_adder(80);
        let all = stuck_fault_list(&net);
        let n = net.primary_inputs().len();
        let mut probe_src = PatternSource::new(9, vec![0.0625; n]);
        let probe = FaultSimulator::with_parallelism(&net, Parallelism::Serial).run_random(
            &all,
            &mut probe_src,
            patterns,
        );
        let mut order: Vec<usize> = (0..all.len()).collect();
        // Escapes (None) last in Option ordering = hardest first when
        // sorted descending.
        order.sort_by_key(|&i| {
            std::cmp::Reverse((probe.detected_at[i].is_none(), probe.detected_at[i]))
        });
        for fault_count in [1usize, 2] {
            let faults: Vec<FaultEntry> = order[..fault_count]
                .iter()
                .map(|&i| all[i].clone())
                .collect();
            for (mode, threads, par) in [
                ("serial", 1usize, Parallelism::Serial),
                ("pattern-sharded", 2, Parallelism::Fixed(2)),
                ("pattern-sharded", 4, Parallelism::Fixed(4)),
            ] {
                let sim = FaultSimulator::with_parallelism(&net, par);
                let mut applied = 0u64;
                let secs = time_best3(|| {
                    let mut src = PatternSource::new(9, vec![0.0625; n]);
                    let out = sim.run_random(&faults, &mut src, patterns);
                    applied = out.patterns_applied;
                    std::hint::black_box(out.coverage());
                });
                let pps = applied as f64 / secs.max(1e-12);
                rows.push_str(&format!(
                    ",\n    {{\"circuit\": \"ripple_adder_80\", \"gates\": {}, \
                     \"faults\": {fault_count}, \"mode\": \"{mode}\", \
                     \"threads\": {threads}, \"patterns\": {applied}, \
                     \"seconds\": {secs:.6}, \"patterns_per_sec\": {pps:.1}}}",
                    net.gates().len(),
                ));
            }
        }
    }

    // Testability-engine throughput: the symbolic tiers on the
    // paper-scale adder (161 inputs — far beyond exact enumeration).
    // `resolve` is the one-time per-fault tier resolution (BDD
    // difference construction / cutting interval propagation);
    // `query` is the per-probability-vector re-evaluation that the
    // weight optimizer's inner loop pays.
    let testability = {
        let net = ripple_adder(80);
        let faults = stuck_fault_list(&net);
        let n = net.primary_inputs().len();
        let probs = vec![0.5f64; n];
        let budget = RunBudget::unlimited();
        let mut tier_rows = String::new();
        for tier in [TierMode::Bdd, TierMode::Cutting] {
            // Tightening off: the row measures the tier kernel itself,
            // not the optional sampling pass.
            let config = TestabilityConfig::new(tier).with_mc_tighten_samples(0);
            let resolve_t = Instant::now();
            let mut engine =
                DetectionEngine::new(&net, &faults, config).with_parallelism(Parallelism::Serial);
            let first = engine.estimates(&probs, &budget).expect("unlimited budget");
            let resolve_secs = resolve_t.elapsed().as_secs_f64();
            assert_eq!(first.len(), faults.len());
            let query_secs = time_best3(|| {
                let est = engine.estimates(&probs, &budget).expect("unlimited budget");
                std::hint::black_box(est.len());
            });
            if !tier_rows.is_empty() {
                tier_rows.push_str(",\n");
            }
            tier_rows.push_str(&format!(
                "      {{\"tier\": \"{}\", \"resolve_seconds\": {resolve_secs:.6}, \
                 \"resolve_faults_per_sec\": {:.1}, \"query_seconds\": {query_secs:.6}, \
                 \"query_faults_per_sec\": {:.1}}}",
                tier.token(),
                faults.len() as f64 / resolve_secs.max(1e-12),
                faults.len() as f64 / query_secs.max(1e-12),
            ));
        }
        format!(
            "  \"testability\": {{\n    \"circuit\": \"ripple_adder_80\",\n    \
             \"gates\": {},\n    \"faults\": {},\n    \"tiers\": [\n{tier_rows}\n    ]\n  }},\n",
            net.gates().len(),
            faults.len(),
        )
    };

    // Weighted-generator kernel: bit-sliced vs the per-bit gen_bool
    // baseline, as raw word generation and as a full Monte Carlo run on
    // a non-uniform probability vector.
    let gen_inputs = 32usize;
    let gen_words = 4096usize;
    let p = 0.9375f64;
    let probs = vec![p; gen_inputs];
    let legacy_gen = time_best3(|| {
        let mut rng = StdRng::seed_from_u64(7);
        let mut acc = 0u64;
        for _ in 0..gen_words {
            for &p in &probs {
                acc ^= per_bit_weighted_word(&mut rng, p);
            }
        }
        std::hint::black_box(acc);
    });
    let sliced_gen = time_best3(|| {
        let src = PatternSource::new(7, probs.clone());
        let mut out = vec![0u64; gen_inputs];
        let mut acc = 0u64;
        for b in 0..gen_words as u64 {
            src.fill_batch_at(b, &mut out);
            acc ^= out[0];
        }
        std::hint::black_box(acc);
    });
    let mc_net = and_or_tree(5); // 32 inputs, 31 gates
    let mc_samples = 200_000u64;
    let legacy_mc = time_best3(|| {
        std::hint::black_box(per_bit_mc_signal(&mc_net, &probs, 5, mc_samples));
    });
    let sliced_mc = time_best3(|| {
        let po = mc_net.primary_outputs()[0];
        std::hint::black_box(mc_signal_probability(&mc_net, po, &probs, 5, mc_samples));
    });

    let total_words = (gen_words * gen_inputs) as f64;
    let json = format!(
        "{{\n  \"bench\": \"fsim\",\n  \"fsim\": [\n{rows}\n  ],\n{testability}  \
         \"weighted_generator\": {{\n    \"probability\": {p},\n    \
         \"inputs\": {gen_inputs},\n    \"weighted_words\": {},\n    \
         \"per_bit_ns_per_word\": {:.2},\n    \"bit_sliced_ns_per_word\": {:.2},\n    \
         \"generation_speedup\": {:.2},\n    \"monte_carlo\": {{\n      \
         \"circuit\": \"and_or_tree_5\",\n      \"samples\": {mc_samples},\n      \
         \"per_bit_seconds\": {legacy_mc:.6},\n      \
         \"bit_sliced_seconds\": {sliced_mc:.6},\n      \
         \"speedup\": {:.2}\n    }}\n  }}\n}}\n",
        gen_words * gen_inputs,
        legacy_gen * 1e9 / total_words,
        sliced_gen * 1e9 / total_words,
        legacy_gen / sliced_gen.max(1e-12),
        legacy_mc / sliced_mc.max(1e-12),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fsim.json");
    std::fs::write(path, &json).expect("write BENCH_fsim.json");
    println!("BENCH_fsim.json written to {path}");
}

criterion_group!(
    name = paper;
    config = Criterion::default().sample_size(20);
    targets =
        bench_e1_static_nor,
        bench_e2_contention,
        bench_e3_domino_cycle,
        bench_e5_theorem_validation,
        bench_e6_e10_library_generation,
        bench_e7_protest,
        bench_e8_a2_coverage,
        bench_e9_atpg,
        bench_e11_at_speed_matrix,
        bench_e12_fault_simulation,
        bench_fsim_throughput,
        bench_fsim_json
);
criterion_main!(paper);
