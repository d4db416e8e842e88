//! Host measurements read from `/proc`: CPU time and peak resident memory
//! of this process or of a child.

/// Kernel clock ticks per second for `/proc/<pid>/stat` CPU fields
/// (`USER_HZ`, 100 on every mainstream Linux build).
const CLK_TCK: f64 = 100.0;

/// User+system CPU seconds consumed so far by process `pid` (`"self"` for
/// this one), all threads included, plus its waited-for children.
pub fn cpu_seconds(pid: &str) -> f64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // Fields after the parenthesised command name, which may hold spaces.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime, stime, cutime, cstime are fields 14..=17 of the full line;
    // `rest` starts at field 3.
    let ticks: u64 = fields
        .get(11..15)
        .map(|f| f.iter().filter_map(|x| x.parse::<u64>().ok()).sum())
        .unwrap_or(0);
    ticks as f64 / CLK_TCK
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mib(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Total size in bytes and count of the regular files directly inside
/// `dir` whose name ends with `suffix`.
pub fn dir_files(dir: &std::path::Path, suffix: &str) -> (u64, u64) {
    let mut bytes = 0;
    let mut files = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let name = e.file_name();
            if !name.to_string_lossy().ends_with(suffix) {
                continue;
            }
            if let Ok(meta) = e.metadata() {
                if meta.is_file() {
                    bytes += meta.len();
                    files += 1;
                }
            }
        }
    }
    (bytes, files)
}
