//! The run's environment: working directories inside the checkout, the
//! generated-edge cache, the RSS high-water mark and the host fingerprint.

use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

use nxgraph_graphgen::rmat::{self, RmatConfig};

/// Directory (relative to the checkout root) holding every file a run
/// writes: the edge cache and the per-run scratch roots.
const WORK_DIR: &str = ".perfbench-work";

/// Generated edge lists kept in the cache; older ones are evicted.
const CACHE_KEEP: usize = 2;

/// A scratch root owned by one run and removed when dropped.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    /// Create a directory no other run can share: `create_dir` fails on
    /// an existing name, so a collision retries under a new one.
    pub fn new() -> std::io::Result<Self> {
        let base = Path::new(WORK_DIR).join("runs");
        fs::create_dir_all(&base)?;
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        for k in 0..1000u32 {
            let path = base.join(format!("{}-{nanos}-{k}", std::process::id()));
            match fs::create_dir(&path) {
                Ok(()) => return Ok(Self { path }),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
        Err(std::io::Error::other("no free scratch directory name"))
    }

    /// A fresh subdirectory path `name` under this root (not created).
    pub fn dir(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// The R-MAT edge list for `(scale, edge_factor, seed)` as raw index pairs,
/// generated once and then read back from the cache. Scale ≤ 32 ids are
/// stored as little-endian `u32` pairs.
pub fn rmat_edges(scale: u32, edge_factor: u32, seed: u64) -> std::io::Result<Vec<(u64, u64)>> {
    assert!(scale <= 32, "cache stores u32 ids");
    let dir = Path::new(WORK_DIR).join("edges");
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("rmat-s{scale}-ef{edge_factor}-seed{seed}.bin"));
    let expect = (edge_factor as usize) << scale;
    if let Ok(mut f) = fs::File::open(&path) {
        let mut bytes = Vec::with_capacity(expect * 8);
        f.read_to_end(&mut bytes)?;
        if bytes.len() == expect * 8 {
            return Ok(bytes
                .chunks_exact(8)
                .map(|c| {
                    let s = u32::from_le_bytes(c[..4].try_into().expect("4 bytes"));
                    let d = u32::from_le_bytes(c[4..].try_into().expect("4 bytes"));
                    (s as u64, d as u64)
                })
                .collect());
        }
    }
    let edges = generate(scale, edge_factor, seed);
    let mut bytes = Vec::with_capacity(edges.len() * 8);
    for &(s, d) in &edges {
        bytes.extend_from_slice(&(s as u32).to_le_bytes());
        bytes.extend_from_slice(&(d as u32).to_le_bytes());
    }
    // Write under a unique temporary name, then rename: a concurrent run
    // never reads a half-written list.
    let tmp = dir.join(format!(".tmp-{}-{seed}", std::process::id()));
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, &path)?;
    evict_old(&dir, &path);
    Ok(edges)
}

/// Generation chunks; chunk `k` is R-MAT chunk 0 of seed `seed + k`,
/// exactly the `k`-th chunk `rmat::generate_chunked` yields, so two
/// threads can share the work and still produce the seed's one list.
const GEN_CHUNKS: u64 = 16;

fn generate(scale: u32, edge_factor: u32, seed: u64) -> Vec<(u64, u64)> {
    let cfg = RmatConfig::graph500(scale, edge_factor, seed);
    let chunk = cfg.num_edges().div_ceil(GEN_CHUNKS);
    let chunks = cfg.num_edges().div_ceil(chunk);
    let gen = |k: u64| -> Vec<(u64, u64)> {
        let cfg_k = RmatConfig {
            seed: seed.wrapping_add(k),
            ..cfg
        };
        let first = rmat::generate_chunked(&cfg_k, chunk)
            .next()
            .unwrap_or_default();
        let len = chunk.min(cfg.num_edges() - k * chunk) as usize;
        first
            .into_iter()
            .take(len)
            .map(|e| (e.src, e.dst))
            .collect()
    };
    let (even, odd) = std::thread::scope(|s| {
        let odd = s.spawn(|| (1..chunks).step_by(2).map(gen).collect::<Vec<_>>());
        let even: Vec<_> = (0..chunks).step_by(2).map(gen).collect();
        (even, odd.join().expect("generator thread panicked"))
    });
    let mut out = Vec::with_capacity(cfg.num_edges() as usize);
    let mut odd = odd.into_iter();
    for e in even {
        out.extend(e);
        out.extend(odd.next().unwrap_or_default());
    }
    out
}

/// Keep the `CACHE_KEEP` most recently written edge lists (and `keep`).
fn evict_old(dir: &Path, keep: &Path) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut files: Vec<(SystemTime, PathBuf)> = entries
        .flatten()
        .filter_map(|e| {
            let p = e.path();
            let t = e.metadata().ok()?.modified().ok()?;
            (p != keep && p.extension().is_some_and(|x| x == "bin")).then_some((t, p))
        })
        .collect();
    files.sort();
    let excess = (files.len() + 1).saturating_sub(CACHE_KEEP);
    for (_, p) in files.into_iter().take(excess) {
        let _ = fs::remove_file(p);
    }
}

/// Flush every file and directory under `path` to the device, so that
/// write-back of earlier phases does not land inside the next timed one.
pub fn settle(path: &Path) {
    fn walk(p: &Path) {
        if let Ok(entries) = fs::read_dir(p) {
            for e in entries.flatten() {
                let q = e.path();
                if q.is_dir() {
                    walk(&q);
                } else if let Ok(f) = fs::File::open(&q) {
                    let _ = f.sync_all();
                }
            }
        }
        if let Ok(d) = fs::File::open(p) {
            let _ = d.sync_all();
        }
    }
    walk(path);
}

/// Put glibc's adaptive mmap threshold at its ceiling (32 MiB) before
/// anything is measured. The threshold rises to the size of the first
/// large block freed; from then on smaller blocks stay on the heap. Left
/// alone, which block that is depends on the seed, and peak RSS of the
/// small serving graph flips between two modes ~2 MiB apart. A long-running
/// process reaches the ceiling anyway; freeing one untouched 31 MiB block
/// gets there deterministically.
pub fn settle_allocator() {
    let block = vec![0u8; 31 << 20];
    drop(std::hint::black_box(block));
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Return the heap's free pages to the kernel, then reset the RSS
/// high-water mark (`VmHWM`) to the current RSS. Without the trim, the
/// baseline of the next phase includes whatever set-up freed but the
/// allocator kept, which varies from run to run by tens of MiB.
pub fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: glibc's malloc_trim only releases free heap pages; it takes
    // the allocator's own locks and touches no live allocation.
    unsafe {
        malloc_trim(0);
    }
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `VmHWM` in MiB: the largest RSS since start or the last reset.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host and build facts recorded with every result.
pub struct Fingerprint {
    nproc: usize,
    cpu: String,
    kernel: String,
    fs: String,
    rustc: String,
    commit: String,
    seed: u64,
}

impl Fingerprint {
    pub fn collect(scratch: &Path, seed: u64) -> Self {
        let cpu = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
        Self {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            cpu,
            kernel,
            fs: filesystem_of(scratch),
            rustc: rustc_version(),
            commit: git_commit(),
            seed,
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu\": {}, \"kernel\": {}, \"fs\": {}, \"rustc\": {}, \"commit\": {}, \"seed\": {}}}",
            self.nproc,
            json_str(&self.cpu),
            json_str(&self.kernel),
            json_str(&self.fs),
            json_str(&self.rustc),
            json_str(&self.commit),
            self.seed
        )
    }
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Filesystem type of the mount holding `path` (longest matching mount
/// point in `/proc/self/mountinfo`).
fn filesystem_of(path: &Path) -> String {
    let Ok(abs) = fs::canonicalize(path) else {
        return "unknown".into();
    };
    let info = fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(sep) = fields.iter().position(|&f| f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        if abs.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// The commit of the checkout, read from `.git` when present. Copies made
/// without git metadata report `none`.
fn git_commit() -> String {
    let Ok(head) = fs::read_to_string(".git/HEAD") else {
        return "none".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
        None => head.to_string(),
    }
}
