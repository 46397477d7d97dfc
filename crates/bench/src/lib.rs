//! Benchmark harness for the CoopRT reproduction.
//!
//! Every table and figure of the paper's evaluation is a figure of the
//! [`paper`] registry, run by one bench target:
//!
//! ```sh
//! cargo bench -p cooprt-bench --bench paper            # all, writes BENCH_paper.json
//! cargo bench -p cooprt-bench --bench paper -- fig09   # figures by name prefix
//! ```
//!
//! Each figure prints the same rows or series the paper reports,
//! normalized to the baseline exactly as the paper normalizes; the
//! extension studies (reordering, ray-path prediction, spatial queries)
//! are figures of the same registry. The checked-in `BENCH_paper.json`
//! is its own pin: `ci.sh` regenerates it at the default knobs and
//! fails when the result differs from the checked-in file by a byte.
//! The other targets are `benchdiff` (the [`diff`] judgement of an A/B
//! host-time comparison, run by `ci/bench_ab.sh`) and `micro_kernels`.
//! Host time is perfbench's: `ci/bench_perf.sh` records its seed-0
//! results in `BENCH_perf.json`.
//!
//! Knobs (environment variables); a knob set to an invalid value is an
//! error, not a fallback to its default:
//!
//! - `COOPRT_RES` — frame resolution, a positive integer (default 64;
//!   the paper uses 256), and of the warp-buffer sweeps too (default
//!   128, see [`sweep_res`]).
//! - `COOPRT_DETAIL` — scene detail level, a positive integer (default
//!   32).
//! - `COOPRT_SCENES` — comma-separated subset of scene names to run
//!   (default: all 15); an unknown name is an error (see [`scene_list`]).
//! - `COOPRT_THREADS` — outer-parallelism width for the scene x config
//!   x policy matrix (default: available parallelism). Simulations are
//!   individually single-threaded and deterministic; the matrix runner
//!   only changes wall-clock time, never an output bit.

use cooprt_scenes::{SceneId, ALL_SCENES};

pub mod diff;
pub mod paper;
pub mod perf;

/// Deterministic outer-loop parallelism (re-exported from
/// [`cooprt_core::parallel`]): the scoped-thread work pool behind the
/// matrix runner and the `COOPRT_THREADS` knob.
pub mod parallel {
    pub use cooprt_core::parallel::{join, par_map, threads};
}

/// Reads a size knob from the environment: `default` when unset.
///
/// # Errors
///
/// Returns [`parse_size`]'s message for a set knob.
pub fn env_usize(name: &str, default: usize) -> Result<usize, String> {
    match std::env::var_os(name) {
        None => Ok(default),
        Some(value) => parse_size(name, &value.to_string_lossy()),
    }
}

/// Parses the value of size knob `name`.
///
/// # Errors
///
/// Names the knob and the value when it is zero or not an integer.
pub fn parse_size(name: &str, value: &str) -> Result<usize, String> {
    match value.parse() {
        Ok(0) | Err(_) => Err(format!("{name}: '{value}' is not a positive integer")),
        Ok(n) => Ok(n),
    }
}

/// Frame resolution for experiments (`COOPRT_RES`, default 64).
///
/// # Errors
///
/// As [`env_usize`].
pub fn default_res() -> Result<usize, String> {
    env_usize("COOPRT_RES", 64)
}

/// Scene detail level (`COOPRT_DETAIL`, default 32).
///
/// # Errors
///
/// As [`env_usize`], and for a level past `u32::MAX`.
pub fn default_detail() -> Result<u32, String> {
    let detail = env_usize("COOPRT_DETAIL", 32)?;
    u32::try_from(detail).map_err(|_| format!("COOPRT_DETAIL: '{detail}' is too large"))
}

/// Frame resolution for the warp-buffer sweep figures (13/14/15).
///
/// Those experiments need enough warps per SM to pressure the RT warp
/// buffer (the paper runs 68 thread blocks per SM); at the ordinary
/// default of 64x64 there are only ~4 warps per SM and buffer sizes
/// beyond 4 change nothing. Defaults to 128 (≈17 warps/SM); override
/// with `COOPRT_RES`.
///
/// # Errors
///
/// As [`env_usize`].
pub fn sweep_res() -> Result<usize, String> {
    env_usize("COOPRT_RES", 128)
}

/// The scene list to run, honouring `COOPRT_SCENES` (all 15 render
/// scenes when unset).
///
/// # Errors
///
/// Returns the message of [`parse_scenes`] for an invalid list, after
/// the knob's name.
pub fn scene_list() -> Result<Vec<SceneId>, String> {
    match std::env::var_os("COOPRT_SCENES") {
        None => Ok(ALL_SCENES.to_vec()),
        Some(spec) => {
            parse_scenes(&spec.to_string_lossy()).map_err(|e| format!("COOPRT_SCENES: {e}"))
        }
    }
}

/// Parses a comma-separated list of render scene names into suite
/// order; empty entries are skipped.
///
/// # Errors
///
/// Names the first entry that is no render scene, or an empty list,
/// and lists the valid names.
pub fn parse_scenes(spec: &str) -> Result<Vec<SceneId>, String> {
    let names = ALL_SCENES.map(SceneId::name);
    let want: Vec<&str> = spec.split(',').map(str::trim).collect();
    let valid = || format!("scenes: {}", names.join(" "));
    if let Some(unknown) = want.iter().find(|w| !w.is_empty() && !names.contains(w)) {
        return Err(format!("no scene named '{unknown}'; {}", valid()));
    }
    let scenes: Vec<SceneId> = ALL_SCENES
        .into_iter()
        .filter(|s| want.contains(&s.name()))
        .collect();
    if scenes.is_empty() {
        return Err(format!("'{spec}' names no scene; {}", valid()));
    }
    Ok(scenes)
}

/// Geometric mean of a slice of positive ratios.
///
/// Returns `0.0` for an empty slice.
///
/// # Examples
///
/// ```
/// assert!((cooprt_bench::gmean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
/// ```
pub fn gmean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gmean_basics() {
        assert_eq!(gmean(&[]), 0.0);
        assert!((gmean(&[3.0]) - 3.0).abs() < 1e-12);
        assert!((gmean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn env_usize_parses_and_defaults() {
        assert_eq!(env_usize("COOPRT_SURELY_UNSET_VAR", 7), Ok(7));
    }

    #[test]
    fn scene_list_defaults_to_all() {
        if std::env::var("COOPRT_SCENES").is_err() {
            assert_eq!(scene_list(), Ok(ALL_SCENES.to_vec()));
        }
    }

    #[test]
    fn scene_lists_parse_in_suite_order_and_reject_unknown_names() {
        use SceneId::{Fox, Wknd};
        assert_eq!(parse_scenes("fox, wknd"), Ok(vec![Wknd, Fox]));
        assert_eq!(parse_scenes("wknd,,fox,wknd,"), Ok(vec![Wknd, Fox]));
        for bad in ["wknd,foxx", "foxx", "quni"] {
            let err = parse_scenes(bad).unwrap_err();
            assert!(
                err.contains("no scene named") && err.contains("robot"),
                "{err}"
            );
        }
        let err = parse_scenes(" , ").unwrap_err();
        assert!(
            err.contains("names no scene") && err.contains("wknd"),
            "{err}"
        );
    }

    #[test]
    fn size_knobs_parse_positive_integers_and_reject_the_rest() {
        assert_eq!(parse_size("COOPRT_RES", "96"), Ok(96));
        assert_eq!(parse_size("COOPRT_DETAIL", "1"), Ok(1));
        for bad in ["0", "abc", "", "-1", "6.4", " 64", "64x"] {
            let err = parse_size("COOPRT_RES", bad).unwrap_err();
            assert_eq!(
                err,
                format!("COOPRT_RES: '{bad}' is not a positive integer")
            );
        }
    }
}
