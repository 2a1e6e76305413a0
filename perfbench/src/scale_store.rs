//! `scale-store`: out-of-core solves on a `.rfcg` store.
//!
//! Set-up writes `generate_scale_rfcg(ScaleConfig::new(250_000), seed_s)` for
//! a seed `seed_s` derived from the workload seed, from a child process, so
//! the generator's buffers stay out of this process's peak RSS, and syncs the
//! store so that write-back does not run during the timed ops. One op opens
//! the store (`DiskCsr::open`), peels it into a residual
//! (`ScaleSolver::from_store`) and solves relative (k, δ=1) on the residual,
//! with k cycling 8, 9, 10, 11; a pass is one cycle. At 250k vertices the
//! generated graphs cost alike, so one store per run is enough, and short
//! passes give each op many repeats. The planted clique has 10
//! vertices of each attribute: it is the answer for k <= 10, and k = 11 has
//! none.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use rfc_core::prelude::*;
use rfc_core::verify::is_fair_clique_under;
use rfc_core::ScaleSolver;
use rfc_datasets::scale::{generate_scale_rfcg, ScaleConfig};
use rfc_graph::disk::DiskCsr;
use rfc_graph::store::GraphStore;
use rfc_graph::GraphBuilder;
use rfc_obs::trace::span;

use crate::common::{self, Ctx, Outcome, SolveTally, Tally, MIN_OPS};
use crate::stats::mean;

/// Store vertices.
const N: usize = 250_000;
/// Stores per run.
const STORES: usize = 1;
/// The `k` values an op cycles through.
const KS: [usize; 4] = [8, 9, 10, 11];

/// Writes the store at `out` and prints the planted vertex ids, comma separated
/// (the `gen-scale` subcommand, run as set-up's child process).
pub fn generate(seed: u64, out: &Path) -> Result<String, String> {
    let summary =
        generate_scale_rfcg(&ScaleConfig::new(N), seed, out).map_err(|e| e.to_string())?;
    let ids: Vec<String> = summary.planted.iter().map(|v| v.to_string()).collect();
    Ok(ids.join(","))
}

fn setup(ctx: &Ctx, stores: &[PathBuf]) -> Vec<Vec<VertexId>> {
    stores
        .iter()
        .enumerate()
        .map(|(i, store)| generate_in_child(ctx, ctx.derive(i as u64), store))
        .collect()
}

fn generate_in_child(ctx: &Ctx, seed: u64, store: &Path) -> Vec<VertexId> {
    let output = Command::new(std::env::current_exe().expect("own executable path"))
        .args(["gen-scale", "--seed", &seed.to_string(), "--out"])
        .arg(store)
        .env("TMPDIR", &ctx.work_dir) // the generator's edge spool
        .output()
        .expect("spawn the store generator");
    assert!(
        output.status.success(),
        "store generator failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8_lossy(&output.stdout)
        .trim()
        .split(',')
        .map(|id| id.parse().expect("planted ids are numbers"))
        .collect()
}

/// Whether `vertices` is a fair clique of the store under `model`, checked on
/// the subgraph the store induces on them.
fn verify_in_store(store: &DiskCsr, vertices: &[VertexId], model: FairnessModel) -> bool {
    let attrs = vertices.iter().map(|&v| store.attribute(v)).collect();
    let mut builder = GraphBuilder::with_attributes(attrs);
    let mut neighbors = Vec::new();
    for (i, &v) in vertices.iter().enumerate() {
        if store.neighbors_into(v, &mut neighbors).is_err() {
            return false;
        }
        for (j, &u) in vertices.iter().enumerate().skip(i + 1) {
            if neighbors.contains(&u) {
                builder.add_edge(i as VertexId, j as VertexId);
            }
        }
    }
    let local: Vec<VertexId> = (0..vertices.len() as VertexId).collect();
    builder
        .build()
        .is_ok_and(|g| is_fair_clique_under(&g, &local, model))
}

#[derive(Default)]
struct Counts {
    disk_read_bytes: Vec<f64>,
    survivor_frac: Vec<f64>,
    residual_kb: Vec<f64>,
    residual_smaller: bool,
}

struct Ops<'a> {
    paths: &'a [PathBuf],
    planted: &'a [Vec<VertexId>],
    counts: Counts,
    solves: SolveTally,
    tally: Tally,
}

impl Ops<'_> {
    fn op(&mut self, i: usize) -> f64 {
        let k = KS[i % KS.len()];
        let at = (i / KS.len()) % self.paths.len();
        let model = FairnessModel::Relative { k, delta: 1 };
        let start = Instant::now();
        let store = {
            let _span = span("bench/graph.rfcg_open");
            DiskCsr::open(&self.paths[at])
        };
        let store = match store {
            Ok(store) => store,
            Err(e) => {
                self.tally.record(Err(format!("open failed: {e}")));
                return start.elapsed().as_secs_f64() * 1e3;
            }
        };
        let solver = {
            let _span = span("bench/scale.from_store");
            ScaleSolver::from_store(&store, k)
        };
        let result = solver
            .as_ref()
            .map_err(|e| e.to_string())
            .and_then(|solver| {
                let _span = span("bench/scale.solve");
                solver.solve(&Query::new(model)).map_err(|e| e.to_string())
            });
        let ms = start.elapsed().as_secs_f64() * 1e3;

        if let Ok(solver) = &solver {
            let stats = solver.stats();
            let residual = solver.residual_resident_bytes();
            self.counts.disk_read_bytes.push(store.bytes_read() as f64);
            self.counts
                .survivor_frac
                .push(stats.peel.surviving_vertices as f64 / stats.store_vertices as f64);
            self.counts.residual_kb.push(residual as f64 / 1024.0);
            self.counts.residual_smaller =
                (i == 0 || self.counts.residual_smaller) && residual < store.resident_bytes();
        }
        if let Ok(solution) = &result {
            self.solves.record(solution);
        }
        let expected: &[VertexId] = if k <= 10 { &self.planted[at] } else { &[] };
        self.tally.record(result.and_then(|solution| {
            let found = solution.best().map_or(&[][..], |c| &c.vertices[..]);
            if !solution.termination.is_complete() || found != expected {
                return Err(format!("k={k}: found {found:?}, expected {expected:?}"));
            }
            if !found.is_empty() && !verify_in_store(&store, found, model) {
                return Err(format!("k={k}: {found:?} is not a fair clique"));
            }
            Ok(())
        }));
        ms
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let paths: Vec<PathBuf> = (0..STORES)
        .map(|i| ctx.work_dir.join(format!("scale{i}.rfcg")))
        .collect();
    let (planted, setup_s) = common::timed_setup(|| setup(ctx, &paths));
    for path in &paths {
        File::open(path)
            .and_then(|f| f.sync_all())
            .expect("sync the generated store");
    }
    out.info.push(("store_vertices".to_string(), N.to_string()));
    let pass = STORES * KS.len();
    let ops = || Ops {
        paths: &paths,
        planted: &planted,
        counts: Counts::default(),
        solves: SolveTally::default(),
        tally: Tally::default(),
    };

    let seconds = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let mut untraced = ops();
    let passes = common::closed_loop(seconds, pass, MIN_OPS, |i| untraced.op(i));
    out.tally = untraced.tally;
    out.require(
        untraced.counts.residual_smaller,
        "the scale-store peel must leave a residual smaller than the store",
    );
    common::end_to_end(&mut out, setup_s, &passes);
    if !ctx.trace {
        return out;
    }

    let mut traced = ops();
    let log = common::traced_rerun(&mut out, &passes, |i| traced.op(i));
    out.tally.absorb(traced.tally);
    traced.solves.layer_metrics(&log, &mut out.values);
    let counts = &traced.counts;
    let v = &mut out.values;
    v.insert(
        "graph.rfcg_open_ms",
        log.stats("bench/graph.rfcg_open").self_ms(),
    );
    v.insert("graph.disk_read_mb", mean(&counts.disk_read_bytes) / 1e6);
    v.insert("scale.peel_ms", log.stats("scale/peel").self_ms());
    v.insert("scale.extract_ms", log.stats("scale/extract").self_ms());
    v.insert(
        "scale.residual_solve_ms",
        log.stats("bench/scale.solve").total_ms(),
    );
    v.insert("scale.peel_survivor_frac", mean(&counts.survivor_frac));
    v.insert("scale.residual_kb", mean(&counts.residual_kb));
    out
}
