//! Counters the operating system keeps about this process, read from `/proc`,
//! and a directory walk "from outside" the engine.

use std::fs;
use std::io;
use std::path::Path;
use std::time::Duration;

fn field_after<'a>(text: &'a str, label: &str) -> Option<&'a str> {
    text.lines().find_map(|line| line.strip_prefix(label)).map(str::trim)
}

fn unreadable(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("cannot parse {what}"))
}

/// Bytes this process has passed to `write`-like system calls so far
/// (`wchar` of `/proc/self/io`): what the program asked the OS to write,
/// whether or not the device has seen it yet.
pub fn bytes_written() -> io::Result<u64> {
    let text = fs::read_to_string("/proc/self/io")?;
    field_after(&text, "wchar:")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| unreadable("/proc/self/io"))
}

/// Peak resident set size of this process, in bytes (`VmHWM`).
pub fn peak_rss_bytes() -> io::Result<u64> {
    let text = fs::read_to_string("/proc/self/status")?;
    field_after(&text, "VmHWM:")
        .and_then(|v| v.strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(|kib| kib * 1024)
        .ok_or_else(|| unreadable("/proc/self/status"))
}

/// User plus system CPU time of every thread of this process so far.
///
/// `/proc/self/stat` counts in clock ticks, which Linux fixes at 100 per
/// second for user space on every architecture Rust's std supports here.
pub fn cpu_time() -> io::Result<Duration> {
    const TICKS_PER_SECOND: u64 = 100;
    let text = fs::read_to_string("/proc/self/stat")?;
    // The command name (field 2) may hold spaces; fields are counted after its ')'.
    let after_name = text.rsplit_once(')').ok_or_else(|| unreadable("/proc/self/stat"))?.1;
    let mut fields = after_name.split_whitespace().skip(11);
    let mut ticks = || fields.next().and_then(|v| v.parse::<u64>().ok());
    match (ticks(), ticks()) {
        (Some(user), Some(system)) => {
            Ok(Duration::from_millis((user + system) * 1000 / TICKS_PER_SECOND))
        }
        _ => Err(unreadable("/proc/self/stat")),
    }
}

/// Total size of the regular files under `dir`. The engine deletes files
/// while this walks, so an entry that vanishes midway counts as zero.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let vanished = |e: &io::Error| e.kind() == io::ErrorKind::NotFound;
    let mut total = 0;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let size = match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => Ok(meta.len()),
            Err(e) => Err(e),
        };
        match size {
            Ok(bytes) => total += bytes,
            Err(e) if vanished(&e) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_counters_parse_on_this_host() {
        assert!(peak_rss_bytes().unwrap() > 0);
        bytes_written().unwrap();
        cpu_time().unwrap();
    }
}
