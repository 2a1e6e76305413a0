//! `paper-cold`: the paper's own sweep (Fig. 6/7) on the six Table-I analogs.
//!
//! Set-up generates each analog with its own fixed seed, relabels its
//! vertices by a seed derived from the workload seed, and writes it as
//! edge-list text. A pass walks the analogs in order: parse the text, build
//! an `RfcSolver`, then solve once at every `k` of the analog's sweep
//! (default δ, `SearchConfig::full` with the paper's preferred extra bound).
//! One op is one solve; the first op of an analog also pays the parse and the
//! solver build, as a user loading a graph would. Every query misses the
//! reduction cache. Query cost varies a lot from one generated graph to the
//! next; relabeling one graph per analog keeps it alike across workload
//! seeds.

use std::time::Instant;

use rfc_bench::workloads::preferred_extra_bound;
use rfc_core::prelude::*;
use rfc_datasets::{DatasetSpec, PaperDataset};
use rfc_graph::io::{read_graph, write_graph};
use rfc_obs::trace::span;

use crate::common::{self, Ctx, Outcome, SolveTally, Tally, MIN_OPS};

struct Analog {
    spec: DatasetSpec,
    config: SearchConfig,
    text: Vec<u8>,
}

fn setup(ctx: &Ctx) -> Vec<Analog> {
    PaperDataset::ALL
        .into_iter()
        .enumerate()
        .map(|(i, dataset)| {
            let spec = dataset.spec();
            let graph = spec.generate();
            let ids = common::relabeling(graph.num_vertices(), ctx.derive(i as u64));
            let graph = common::relabeled(&graph, &ids);
            let mut text = Vec::new();
            write_graph(&graph, &mut text).expect("writing to memory cannot fail");
            Analog {
                config: SearchConfig::full(preferred_extra_bound(dataset)),
                spec,
                text,
            }
        })
        .collect()
}

/// One query of the sweep.
struct Step {
    analog: usize,
    model: FairnessModel,
    /// Reference clique sizes (empty when infeasible).
    expected: Vec<usize>,
}

fn plan(analogs: &[Analog]) -> Vec<Step> {
    let mut steps = Vec::new();
    for (i, analog) in analogs.iter().enumerate() {
        let graph = read_graph(&analog.text[..]).expect("set-up text parses");
        let reference = RfcSolver::new(graph);
        for k in analog.spec.k_values() {
            let model = FairnessModel::Relative {
                k,
                delta: analog.spec.default_delta,
            };
            let expected = common::reference_sizes(&reference, model, Objective::Maximum);
            steps.push(Step {
                analog: i,
                model,
                expected,
            });
        }
    }
    steps
}

/// Runs the sweep's ops; keeps the loaded solver between ops of one instance.
struct Sweep<'a> {
    analogs: &'a [Analog],
    steps: &'a [Step],
    loaded: Option<(usize, RfcSolver)>,
    solves: SolveTally,
    tally: Tally,
}

impl Sweep<'_> {
    fn op(&mut self, i: usize) -> f64 {
        let step = &self.steps[i % self.steps.len()];
        if self.loaded.as_ref().map(|l| l.0) != Some(step.analog) {
            self.loaded = None; // drop the previous instance outside the timed part
        }
        let analog = &self.analogs[step.analog];
        let query = Query::new(step.model).with_config(analog.config.clone());
        let start = Instant::now();
        let solver = &self
            .loaded
            .get_or_insert_with(|| {
                let graph = {
                    let _span = span("bench/graph.parse");
                    read_graph(&analog.text[..]).expect("set-up text parses")
                };
                let _span = span("bench/solver.new");
                (step.analog, RfcSolver::new(graph))
            })
            .1;
        let result = {
            let _span = span("bench/solver.solve");
            solver.solve(&query)
        };
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if let Ok(solution) = &result {
            self.solves.record(solution);
        }
        self.tally.record(common::check_solution(
            solver.graph(),
            step.model,
            &result,
            &step.expected,
        ));
        ms
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (analogs, setup_s) = common::timed_setup(|| setup(ctx));
    let steps = plan(&analogs);
    out.info
        .push(("ops_per_pass".to_string(), steps.len().to_string()));
    let sweep = |steps| Sweep {
        analogs: &analogs,
        steps,
        loaded: None,
        solves: SolveTally::default(),
        tally: Tally::default(),
    };

    let seconds = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let mut untraced = sweep(&steps);
    let passes = common::closed_loop(seconds, steps.len(), MIN_OPS, |i| untraced.op(i));
    out.tally = untraced.tally;
    out.require(
        untraced.solves.cache_hit_ratio() == 0.0,
        "paper-cold queries must all miss the reduction cache",
    );
    common::end_to_end(&mut out, setup_s, &passes);
    if !ctx.trace {
        return out;
    }

    let mut traced = sweep(&steps);
    let log = common::traced_rerun(&mut out, &passes, |i| traced.op(i));
    out.tally.absorb(traced.tally);
    traced.solves.layer_metrics(&log, &mut out.values);
    out.values
        .insert("graph.parse_ms", log.stats("bench/graph.parse").self_ms());
    out.values
        .insert("graph.coloring_ms", log.stats("bench/solver.new").self_ms());
    out
}
