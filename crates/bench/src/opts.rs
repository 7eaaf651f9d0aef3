//! The command line shared by the `fig_*` binaries: the
//! `LINKPAD_SCALE` environment variable and the `--report`, `--events`
//! and (where the binary honours it) `--trace` output paths.

use std::path::PathBuf;

/// Experiment scale selected by `LINKPAD_SCALE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// `quick`: the CI smoke scale.
    Quick,
    /// `paper` (the default when unset): the paper's scale.
    #[default]
    Paper,
}

impl Scale {
    /// Scale selected by the `LINKPAD_SCALE` environment variable.
    pub fn from_env() -> Self {
        Self::parse(std::env::var("LINKPAD_SCALE").ok().as_deref())
    }

    /// [`Scale::from_env`]'s pure core, testable without touching the
    /// process environment.
    ///
    /// The value is trimmed first, so `"paper "` or `" quick"` (easy to
    /// produce in shell wrappers and CI YAML) select the intended scale.
    /// Any other value (`"Quick"` included) warns on stderr and falls
    /// back to `paper`.
    pub fn parse(value: Option<&str>) -> Self {
        match value.map(str::trim) {
            Some("quick") => Scale::Quick,
            None | Some("paper") => Scale::Paper,
            Some(other) => {
                eprintln!(
                    "warning: unrecognized LINKPAD_SCALE={other:?} \
                     (expected \"quick\" or \"paper\"); defaulting to \"paper\""
                );
                Scale::Paper
            }
        }
    }

    /// Is this the CI smoke scale?
    pub fn is_quick(self) -> bool {
        self == Scale::Quick
    }
}

/// Parsed command line of a `fig_*` binary.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunOpts {
    /// Scale from `LINKPAD_SCALE`.
    pub scale: Scale,
    /// `--report <path>`: where to write the run manifest.
    pub report: Option<PathBuf>,
    /// `--events <path>`: where to write the harness event log.
    pub events: Option<PathBuf>,
    /// `--trace <path>`: where to write the Chrome trace-event JSON.
    /// Only binaries that trace accept the flag.
    pub trace: Option<PathBuf>,
}

impl RunOpts {
    /// Parse the process arguments and `LINKPAD_SCALE` for binary `bin`,
    /// which accepts `--trace` iff `traces`. A bad argument prints the
    /// error and the usage line and exits with status 2.
    pub fn from_env(bin: &str, traces: bool) -> Self {
        let scale = Scale::from_env();
        match Self::parse(traces, std::env::args().skip(1), scale) {
            Ok(opts) => opts,
            Err(e) => {
                eprintln!("{bin}: {e}");
                let trace = if traces { " [--trace <path>]" } else { "" };
                eprintln!("usage: {bin} [--report <path>] [--events <path>]{trace}");
                std::process::exit(2);
            }
        }
    }

    /// [`RunOpts::from_env`]'s pure core: parse `args` (without the
    /// program name) under an already chosen `scale`.
    pub fn parse(
        traces: bool,
        args: impl IntoIterator<Item = String>,
        scale: Scale,
    ) -> Result<Self, String> {
        let mut opts = RunOpts {
            scale,
            ..RunOpts::default()
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let slot = match arg.as_str() {
                "--report" => &mut opts.report,
                "--events" => &mut opts.events,
                "--trace" if traces => &mut opts.trace,
                _ => return Err(format!("unknown argument {arg:?}")),
            };
            let path = args.next().ok_or_else(|| format!("{arg} needs a path"))?;
            *slot = Some(PathBuf::from(path));
        }
        Ok(opts)
    }

    /// Is any output requested? Binaries run their observed (logged)
    /// path only then.
    pub fn observing(&self) -> bool {
        self.report.is_some() || self.events.is_some() || self.trace.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(traces: bool, args: &[&str]) -> Result<RunOpts, String> {
        RunOpts::parse(traces, args.iter().map(|a| a.to_string()), Scale::Paper)
    }

    #[test]
    fn parses_every_path_flag() {
        let opts = parse(true, &["--events", "e", "--report", "r", "--trace", "t"]).unwrap();
        let path = |p: &str| Some(PathBuf::from(p));
        assert_eq!(
            (opts.report, opts.events, opts.trace),
            (path("r"), path("e"), path("t"))
        );
        assert!(!parse(false, &[]).unwrap().observing());
    }

    #[test]
    fn a_flag_without_its_path_is_an_error() {
        assert_eq!(
            parse(false, &["--report"]).unwrap_err(),
            "--report needs a path"
        );
        assert_eq!(
            parse(true, &["--events", "e.json", "--trace"]).unwrap_err(),
            "--trace needs a path"
        );
    }

    #[test]
    fn an_unknown_argument_is_an_error() {
        assert_eq!(
            parse(true, &["--reprot", "r.json"]).unwrap_err(),
            "unknown argument \"--reprot\""
        );
    }

    #[test]
    fn trace_is_rejected_by_a_binary_that_does_not_trace() {
        assert_eq!(
            parse(false, &["--trace", "t.json"]).unwrap_err(),
            "unknown argument \"--trace\""
        );
    }
}
