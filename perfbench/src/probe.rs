//! The post-window probe of a traced run: a short, single-threaded pass
//! through every engine-side public call, so each traced run reports every
//! per-layer metric. Metrics the workload's own ops, checks or set-up reach
//! keep those values; the probe only fills the rest, and the report marks
//! what it fills as not tied to the workload's end-to-end figures.

use crimson::history::QueryKind;
use crimson::prelude::*;
use reconstruction::compare::robinson_foulds;
use reconstruction::distance::jc_corrected_matrix;
use reconstruction::nj::neighbor_joining;
use reconstruction::upgma::upgma;

use crate::common::Outcome;
use crate::inputs::GoldText;
use crate::layers::{stats_delta, Layers};
use crate::trace::{Phase, Tracer};

const ITERATIONS: u64 = 3;
const TIME: f64 = 1.0;

/// Probe `repo`. Calls that need a tree address `target`, or, without one,
/// the copy of `extra` the probe itself loads (which carries sequences).
/// Each iteration counts as an attempt in `out`; an error or a wrong
/// answer counts as a failure and ends the probe.
#[allow(clippy::too_many_arguments)]
pub fn engine(
    repo: &mut Repository,
    target: Option<TreeHandle>,
    extra: &GoldText,
    k: usize,
    tracer: &Tracer,
    layers: &mut Layers,
    out: &mut Outcome,
) {
    out.attempted += ITERATIONS;
    if let Err(e) = engine_inner(repo, target, extra, k, tracer, layers) {
        out.fail(e);
    }
}

fn engine_inner(
    repo: &mut Repository,
    target: Option<TreeHandle>,
    extra: &GoldText,
    k: usize,
    tracer: &Tracer,
    layers: &mut Layers,
) -> Result<(), String> {
    let e = |what: &str| {
        let what = what.to_string();
        move |err: CrimsonError| format!("probe {what}: {err}")
    };
    let mut tally = crate::ingest::LoadTally::default();
    let mut hits = 0u64;
    let mut persist_ms = Vec::new();
    for i in 0..ITERATIONS {
        let op = tracer.op(Phase::Probe, crate::PROBE_OP + i, true);
        let doc = op
            .call("phylo.parse", || phylo::nexus::parse(&extra.nexus))
            .map_err(|err| format!("probe parse: {err}"))?;
        let start = std::time::Instant::now();
        let loaded = op
            .call("loader.load", || {
                repo.load_nexus(&format!("probe{i}"), &doc, LoadMode::TreeWithSpecies)
            })
            .map_err(e("load"))?;
        tally.add(&loaded, crate::common::ms(start.elapsed()));
        let (_, hit) = op
            .call("content.dedup", || {
                repo.store_tree_dedup(&format!("probe{i}-again"), &doc.trees[0].tree)
            })
            .map_err(e("dedup"))?;
        hits += u64::from(hit);
        let gold = target.unwrap_or(loaded.handle);

        let reader = repo.reader().map_err(e("reader"))?;
        let leaves = op
            .call("repository.leaves", || reader.leaves(gold))
            .map_err(e("leaves"))?;
        let (a, b, c) = (
            leaves[0],
            leaves[leaves.len() / 2],
            leaves[leaves.len() - 1],
        );
        let sample = {
            let pinned = op.call("reader.pin", || reader.pin()).map_err(e("pin"))?;
            op.call("query.lca", || pinned.lca(a, b))
                .map_err(e("lca"))?;
            op.call("query.is_ancestor", || pinned.is_ancestor(a, c))
                .map_err(e("is_ancestor"))?;
            op.call("query.clade", || pinned.minimal_spanning_clade(&[a, b, c]))
                .map_err(e("clade"))?;
            let sample = op
                .call("sampling.uniform", || pinned.sample_uniform(gold, k, i))
                .map_err(e("sample"))?;
            let projection = op
                .call("query.project", || pinned.project(gold, &sample))
                .map_err(e("project"))?;
            let matched = op
                .call("query.pattern", || pinned.pattern_match(gold, &projection))
                .map_err(e("pattern"))?;
            if !matched.exact_topology {
                return Err("probe: a tree's own projection did not match it".into());
            }
            (sample, projection)
        };
        let before = repo.buffer_stats();
        op.call("sampling.frontier", || reader.time_frontier(gold, TIME))
            .map_err(e("frontier"))?;
        let reads = stats_delta(&before, &repo.buffer_stats());
        layers.value(
            "sampling.frontier_page_reads",
            "probe",
            (reads.hits + reads.misses) as f64,
        );
        op.call("sampling.by_time", || {
            reader.sample_by_time(gold, TIME, k, i)
        })
        .map_err(e("by_time"))?;
        let names = reader.names_of(&sample.0).map_err(e("names"))?;
        let sequences = op
            .call("repository.sequences", || {
                reader.sequences_for(gold, &names)
            })
            .map_err(e("sequences"))?;
        let matrix = op
            .call("reconstruction.distance", || {
                jc_corrected_matrix(&sequences)
            })
            .map_err(|err| format!("probe distances: {err}"))?;
        let nj = op
            .call("reconstruction.nj", || neighbor_joining(&matrix))
            .map_err(|err| format!("probe nj: {err}"))?;
        op.call("reconstruction.upgma", || upgma(&matrix))
            .map_err(|err| format!("probe upgma: {err}"))?;
        op.call("reconstruction.rf", || robinson_foulds(&sample.1, &nj))
            .map_err(|err| format!("probe rf: {err}"))?;
        drop(reader);

        let spec = ExperimentSpec {
            name: format!("probe-sweep{i}"),
            methods: vec![Method::NeighborJoining, Method::Upgma],
            strategies: vec![SamplingStrategy::Uniform { k }],
            replicates: 1,
            distance_source: DistanceSource::SequencesJc,
            compute_triplets: false,
            seed: i,
            workers: 1,
            cell_commits: false,
        };
        let record = op
            .call("experiment.run", || {
                ExperimentRunner::new(repo, gold).run(&spec)
            })
            .map_err(e("experiment"))?;
        let results = repo.experiment_results(record.id).map_err(e("results"))?;
        persist_ms.extend(results.iter().map(|r| r.persist_ms));
        if let [x, y, ..] = results.as_slice() {
            op.call("compare.stored_rf", || {
                repo.compare_stored(x.recon, y.recon, false)
            })
            .map_err(e("compare"))?;
        }
        op.call("history.record", || {
            repo.record_query(QueryKind::Lca, serde_json::Value::Null, "probe")
        })
        .map_err(e("history"))?;
        op.call("checkpoint.flush", || repo.flush())
            .map_err(e("flush"))?;
        op.finish();
    }
    tally.report(layers, "probe");
    layers.median(
        "experiment.persist_ms",
        "probe",
        &persist_ms,
        crate::layers::MS,
    );
    // Every probe resubmission repeats a tree it has just loaded.
    layers.ratio(
        "content.dedup_hit_ratio",
        "probe",
        hits as f64,
        ITERATIONS as f64,
    );
    let content = repo.content_stats().map_err(e("content stats"))?;
    layers.ratio(
        "content.stored_node_ratio",
        "probe",
        content.stored_nodes as f64,
        content.logical_nodes as f64,
    );
    Ok(())
}
