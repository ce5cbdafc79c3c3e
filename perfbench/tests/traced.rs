//! The traced run must assemble exactly what `run_dibella_2d` assembles and
//! report every per-layer metric `BENCHMARK.json` lists.

use dibella_perfbench::traced::{assemble_traced, layer_metrics, LAYER_METRICS};
use dibella_perfbench::{output_digest, Input, END_TO_END};
use dibella_pipeline::{run_dibella_2d, CandidateSource, PipelineConfig};
use dibella_seq::DatasetSpec;
use dibella_testutil::PeakAlloc;

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc::new();

#[test]
fn traced_run_matches_the_pipeline_and_emits_every_layer_metric() {
    for seed in [5, 6] {
        for source in [CandidateSource::ExactKmer, CandidateSource::KMinMer] {
            let input = Input::simulate(DatasetSpec::Tiny, 4_000, seed, seed + 1);
            let config = PipelineConfig {
                candidate_source: source,
                ..PipelineConfig::for_small_reads(13, 4)
            };
            let out = run_dibella_2d(&input.fasta, &config).expect("tiny input assembles");
            let run = assemble_traced(&input.fasta, &config, 2, seed, &ALLOC)
                .expect("tiny input assembles traced");
            assert_eq!(
                run.digest,
                output_digest(&out.string_matrix, &out.consensus),
                "seed {seed}, {source:?}: traced output differs from run_dibella_2d's"
            );

            let quality = input.quality(&run.contigs, &run.consensus, &config);
            let metrics = layer_metrics(&run, out.timings.total(), &quality);
            let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
            let want: Vec<&str> = LAYER_METRICS.iter().map(|&(name, _, _)| name).collect();
            assert_eq!(names, want, "seed {seed}, {source:?}");
            for m in &metrics {
                assert!(
                    m.value.is_finite(),
                    "seed {seed}, {source:?}: {} = {}",
                    m.name,
                    m.value
                );
            }
        }
    }
}

/// The `BENCHMARK.json` line listing `name` in the `section` array.
fn listed<'a>(json: &'a str, section: &str, name: &str) -> Option<&'a str> {
    let start = json.find(&format!("\"{section}\""))?;
    let end = json[start..].find(']').map_or(json.len(), |e| start + e);
    json[start..end]
        .lines()
        .find(|line| line.contains(&format!("\"name\": \"{name}\"")))
}

#[test]
fn benchmark_json_lists_every_metric_with_its_unit_and_direction() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (section, metrics) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &LAYER_METRICS[..]),
    ] {
        for &(name, unit, better) in metrics {
            let line = listed(&json, section, name)
                .unwrap_or_else(|| panic!("{section} does not list {name}"));
            assert!(
                line.contains(&format!("\"unit\": \"{unit}\"")),
                "{name}: {line}"
            );
            assert!(
                line.contains(&format!("\"better\": \"{better}\"")),
                "{name}: {line}"
            );
        }
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let listed_count = json[start..]
            .split(']')
            .next()
            .expect("array")
            .matches("\"name\"")
            .count();
        assert_eq!(
            listed_count,
            metrics.len(),
            "{section} lists metrics the benchmark does not emit"
        );
    }
}
