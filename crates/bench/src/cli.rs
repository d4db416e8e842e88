//! The one command-line layer of the workspace's binaries.
//!
//! Flags are taken out of an argument vector by name: [`flag`] for
//! booleans, [`value`] for strings, [`number`] for typed numbers and
//! [`list`] for comma-separated lists ([`workloads`] and [`schemes`] for
//! the two lists the binaries share). Each returns a one-line error that
//! names the flag, and a binary hands it to [`or_exit`], which prints it
//! and exits with status 2 — the usage-error convention of every binary.
//!
//! [`ExperimentArgs`] is the front end of the figure/table binaries
//! (`table2`, `fig4`–`fig7`, `asm_eval`, `all`): it parses the flags they
//! share and validates the sweep context before anything is simulated,
//! and [`ExperimentArgs::write`] writes the artefact, its run-telemetry
//! twin and the optional Prometheus file.

use crate::sweep::{MetricsBlock, SweepContext};
use crate::workloads::{parse_scheme, Workload};
use crate::ExperimentConfig;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use vpr_core::RenameScheme;
use vpr_obs::RunTelemetry;

/// The process's command line, without the program name.
pub fn args() -> Vec<String> {
    std::env::args().skip(1).collect()
}

/// The value of `result`; on an error, prints it and exits with status 2.
pub fn or_exit<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// Takes the boolean flag `name` out of `args`; `true` when it was there.
pub fn flag(args: &mut Vec<String>, name: &str) -> bool {
    let found = args.iter().position(|a| a == name);
    found.map(|pos| args.remove(pos)).is_some()
}

/// Takes `name VALUE` out of `args`; `None` when the flag is absent.
///
/// # Errors
///
/// The flag is the last argument, with no value after it.
pub fn value(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    let Some(pos) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    if pos + 1 >= args.len() {
        return Err(format!("{name} needs a value"));
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Ok(Some(value))
}

/// Parses `text`, the value of `name`, as a number.
///
/// # Errors
///
/// Names the flag and says why `text` is not a number of type `T`.
pub fn parse_number<T: FromStr>(name: &str, text: &str) -> Result<T, String>
where
    T::Err: Display,
{
    text.parse()
        .map_err(|e| format!("bad value for {name}: {e}"))
}

/// Takes `name N` out of `args` and parses `N` ([`value`], then
/// [`parse_number`]).
///
/// # Errors
///
/// A missing or malformed value.
pub fn number<T: FromStr>(args: &mut Vec<String>, name: &str) -> Result<Option<T>, String>
where
    T::Err: Display,
{
    value(args, name)?
        .map(|text| parse_number(name, &text))
        .transpose()
}

/// Takes `name A,B,..` out of `args` and parses each trimmed item.
///
/// # Errors
///
/// A missing value, or the first item `parse` rejects.
pub fn list<T>(
    args: &mut Vec<String>,
    name: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<Option<Vec<T>>, String> {
    value(args, name)?
        .map(|csv| csv.split(',').map(|item| parse(item.trim())).collect())
        .transpose()
}

/// A comma-separated workload list ([`Workload::parse`]): synthetic
/// benchmark names (`swim`) and assembled programs (`asm:matmul`) mix
/// freely.
///
/// # Errors
///
/// A missing value or an unknown workload name.
pub fn workloads(args: &mut Vec<String>, name: &str) -> Result<Option<Vec<Workload>>, String> {
    list(args, name, Workload::parse)
}

/// A comma-separated scheme-label list ([`parse_scheme`]).
///
/// # Errors
///
/// A missing value or an unknown scheme label.
pub fn schemes(args: &mut Vec<String>, name: &str) -> Result<Option<Vec<RenameScheme>>, String> {
    list(args, name, parse_scheme)
}

/// Writes an artefact and says so on stdout; exits with status 1 when
/// the file cannot be written.
pub fn write_artifact(path: &Path, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("wrote {}", path.display());
}

/// The flags every figure/table binary shares, parsed and checked.
#[derive(Debug)]
pub struct ExperimentArgs {
    /// Where the JSON artefact goes (`--json PATH`; the default is the
    /// binary's own file name).
    pub json: PathBuf,
    /// Where the Prometheus exposition goes (`--metrics-prom PATH`).
    pub metrics_prom: Option<PathBuf>,
    /// `--workload NAME[,NAME..]`; `None` keeps the binary's default set.
    pub workloads: Option<Vec<Workload>>,
    /// `--warmup`, `--measure`, `--seed`, `--miss-penalty` and `--jobs`,
    /// over the paper-scale defaults.
    pub exp: ExperimentConfig,
    /// Exact or sampled (`--sampled`), with the checkpoint directory
    /// (`--checkpoint-dir DIR`).
    pub ctx: SweepContext,
}

impl ExperimentArgs {
    /// Parses the shared experiment flags out of `args`, writing the
    /// artefact to `default_json` unless `--json` says otherwise, and
    /// checks the sweep context against the experiment. Nothing is
    /// simulated.
    ///
    /// # Errors
    ///
    /// An unknown flag, a missing or malformed value, an unknown
    /// workload, or a sampling plan the experiment cannot hold.
    pub fn parse(mut args: Vec<String>, default_json: &str) -> Result<Self, String> {
        let json = value(&mut args, "--json")?.unwrap_or_else(|| default_json.into());
        let sampled = flag(&mut args, "--sampled");
        let checkpoint_dir = value(&mut args, "--checkpoint-dir")?.map(PathBuf::from);
        let metrics_prom = value(&mut args, "--metrics-prom")?.map(PathBuf::from);
        let workloads = workloads(&mut args, "--workload")?;
        let exp = ExperimentConfig::from_args(args)?;
        let ctx = SweepContext::new(sampled, checkpoint_dir.as_deref());
        ctx.try_validate(&exp)?;
        Ok(Self {
            json: json.into(),
            metrics_prom,
            workloads,
            exp,
            ctx,
        })
    }

    /// [`ExperimentArgs::parse`] over the process's command line; a
    /// usage error exits with status 2.
    pub fn from_env(default_json: &str) -> Self {
        or_exit(Self::parse(args(), default_json))
    }

    /// Writes the artefact `json`, its run-telemetry twin
    /// ([`crate::telemetry_path`]) and, under `--metrics-prom`, the
    /// Prometheus exposition of `metrics`.
    ///
    /// Telemetry is host wall-clock data, kept in its own file so the
    /// artefact stays byte-reproducible; failing to write it is reported
    /// but not fatal. Sampled sweeps carry no sound full-run series, so
    /// their Prometheus file is not written and a note says why.
    pub fn write(&self, json: &str, telemetry: &RunTelemetry, metrics: &MetricsBlock) {
        write_artifact(&self.json, json);
        let twin = crate::telemetry_path(&self.json);
        match std::fs::write(&twin, telemetry.to_json()) {
            Ok(()) => println!("wrote {}", twin.display()),
            Err(e) => eprintln!("cannot write {}: {e}", twin.display()),
        }
        let Some(path) = &self.metrics_prom else {
            return;
        };
        match metrics.to_prometheus() {
            Some(text) => write_artifact(path, &text),
            None => eprintln!(
                "note: sampled sweeps export no metric series; {} not written",
                path.display()
            ),
        }
    }
}
