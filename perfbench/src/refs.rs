//! Reference outputs, recorded by `--record-refs` and checked in under
//! `refs/`: the deterministic artefact JSON of the batch workloads and the
//! exact model counters, one file per (scale, workload, trace seed).

use std::path::PathBuf;

use crate::Scale;

/// The trace seeds references exist for. A run's `--seed` picks one of
/// them, so any seed maps to inputs whose outputs are known.
pub const REF_SEEDS: [u64; 4] = [42, 101, 202, 303];

/// The trace seed a batch-workload run with input seed `seed` simulates.
pub fn trace_seed(seed: u64) -> u64 {
    REF_SEEDS[(seed % REF_SEEDS.len() as u64) as usize]
}

/// Trace seeds recorded at `scale`.
pub fn recorded_seeds(scale: Scale) -> &'static [u64] {
    match scale {
        Scale::Bench => &REF_SEEDS,
        Scale::Tiny => &REF_SEEDS[..1],
    }
}

/// Path of reference `name` for `seed` at `scale`.
pub fn path(scale: Scale, name: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("refs")
        .join(format!("{}-{name}-s{seed}.json", scale.name()))
}

/// Compares `got` with the recorded reference `name`; the error names the
/// first line that differs.
pub fn check(scale: Scale, name: &str, seed: u64, got: &str) -> Result<(), String> {
    let p = path(scale, name, seed);
    let want =
        std::fs::read_to_string(&p).map_err(|e| format!("no reference {}: {e}", p.display()))?;
    if want == got {
        return Ok(());
    }
    let (i, (w, g)) = want
        .lines()
        .zip(got.lines())
        .enumerate()
        .find(|(_, (w, g))| w != g)
        .unwrap_or((
            want.lines().count().min(got.lines().count()),
            ("<end>", "<end>"),
        ));
    Err(format!(
        "{name} (seed {seed}) differs from {} at line {}: got `{}`, want `{}`",
        p.display(),
        i + 1,
        g.trim(),
        w.trim()
    ))
}

/// Renders named counters as a reference document (values in shortest
/// round-trip form, so equal text means equal bits).
pub fn counters_json(values: &[(&str, f64)]) -> String {
    let rows: Vec<String> = values
        .iter()
        .map(|(k, v)| format!("  \"{k}\": \"{v}\""))
        .collect();
    format!("{{\n{}\n}}\n", rows.join(",\n"))
}

/// Joins artefact documents under named keys, indented like the `all`
/// binary's combined `eval.json`.
pub fn combine(schema: &str, parts: &[(&str, String)]) -> String {
    let indent = |j: &str| j.trim_end().replace('\n', "\n  ");
    let body: Vec<String> = parts
        .iter()
        .map(|(k, j)| format!("  \"{k}\": {}", indent(j)))
        .collect();
    format!(
        "{{\n  \"schema\": \"{schema}\",\n{}\n}}\n",
        body.join(",\n")
    )
}
