//! `sampler`: a program-counter sampler for Linux x86-64 built on `ptrace`.
//!
//! ```text
//! sampler [--interval-ms <n>] [--top <n>] -- <program> [args...]
//! ```
//!
//! Runs `program` as its own traced child, stops it every `n` ms (default
//! 2) with `SIGSTOP`, reads the program counter and lets it run on. When
//! the child exits, the samples that fell in the executable are folded by
//! inline chain with binutils' `addr2line -a -i -f -C`: *self* counts per
//! innermost source line, *inclusive* counts per function anywhere on the
//! chain, inlined frames included. Samples in shared libraries count under
//! the library's name. Build the child with line tables, e.g.
//! `CARGO_PROFILE_RELEASE_DEBUG=line-tables-only cargo build --release`.
//!
//! The report goes to stdout and the child's stdout to stderr. Only the
//! child's main thread is traced and sampled; the simulator is
//! single-threaded. The sampler traces nothing but its own child and
//! writes nothing: it reads the child's `/proc/<pid>/maps` and `exe` link
//! to place the samples.

use std::collections::HashMap;
use std::ffi::{c_int, c_long, c_void};
use std::io::{BufRead, BufReader, Write};
use std::os::fd::AsFd;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

const PTRACE_TRACEME: c_int = 0;
const PTRACE_CONT: c_int = 7;
const PTRACE_GETREGS: c_int = 12;
const SIGTRAP: c_int = 5;
const SIGSTOP: c_int = 19;
/// Words in the kernel's x86-64 `struct user_regs_struct`.
const USER_REGS_WORDS: usize = 27;
/// Index of `rip` in it.
const RIP: usize = 16;
/// `PT_LOAD` in an ELF program header.
const PT_LOAD: u32 = 1;

extern "C" {
    fn ptrace(request: c_int, ...) -> c_long;
    fn waitpid(pid: c_int, status: *mut c_int, options: c_int) -> c_int;
    fn kill(pid: c_int, sig: c_int) -> c_int;
}

/// The child's state after a `waitpid`.
enum Child {
    /// In a signal-delivery stop for this signal.
    Stopped(c_int),
    /// Exited or killed (and reaped).
    Gone,
}

fn wait(pid: c_int) -> Child {
    let mut status: c_int = 0;
    loop {
        // SAFETY: `status` is a valid out-pointer for the call.
        let r = unsafe { waitpid(pid, &mut status, 0) };
        if r == pid {
            break;
        }
        if std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
            return Child::Gone;
        }
    }
    if status & 0xff == 0x7f {
        Child::Stopped((status >> 8) & 0xff)
    } else {
        Child::Gone
    }
}

/// Resumes a stopped child, delivering `sig` (0 suppresses the stop's).
fn cont(pid: c_int, sig: c_int) {
    // SAFETY: PTRACE_CONT reads no memory of ours; `data` is the signal.
    unsafe {
        ptrace(
            PTRACE_CONT,
            pid,
            std::ptr::null_mut::<c_void>(),
            sig as usize as *mut c_void,
        );
    }
}

/// The stopped child's program counter.
fn pc(pid: c_int) -> Option<u64> {
    let mut regs = [0u64; USER_REGS_WORDS];
    // SAFETY: `regs` is as large as the `user_regs_struct` the kernel
    // writes.
    let r = unsafe {
        ptrace(
            PTRACE_GETREGS,
            pid,
            std::ptr::null_mut::<c_void>(),
            regs.as_mut_ptr().cast::<c_void>(),
        )
    };
    (r != -1).then_some(regs[RIP])
}

/// One file-backed mapping of the child: `[start, end)` maps the file
/// from `offset` on.
struct Mapping {
    start: u64,
    end: u64,
    offset: u64,
    path: PathBuf,
}

fn read_maps(pid: c_int) -> Vec<Mapping> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/maps")).unwrap_or_default();
    text.lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (range, _perms, offset) = (f.next()?, f.next()?, f.next()?);
            let path = f.nth(2)?;
            let (start, end) = range.split_once('-')?;
            Some(Mapping {
                start: u64::from_str_radix(start, 16).ok()?,
                end: u64::from_str_radix(end, 16).ok()?,
                offset: u64::from_str_radix(offset, 16).ok()?,
                path: PathBuf::from(path),
            })
        })
        .collect()
}

/// The executable's `PT_LOAD` segments as `(file offset, vaddr, size)`.
fn load_segments(exe: &Path) -> Vec<(u64, u64, u64)> {
    let Ok(elf) = std::fs::read(exe) else {
        return Vec::new();
    };
    let u16_at = |at: usize| {
        elf.get(at..at + 2)
            .map(|b| u16::from_le_bytes([b[0], b[1]]))
    };
    let u32_at = |at: usize| {
        elf.get(at..at + 4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    };
    let u64_at = |at: usize| {
        elf.get(at..at + 8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    };
    let (Some(phoff), Some(phentsize), Some(phnum)) = (u64_at(0x20), u16_at(0x36), u16_at(0x38))
    else {
        return Vec::new();
    };
    (0..phnum as usize)
        .filter_map(|i| {
            let ph = phoff as usize + i * phentsize as usize;
            (u32_at(ph)? == PT_LOAD).then_some((
                u64_at(ph + 8)?,
                u64_at(ph + 16)?,
                u64_at(ph + 32)?,
            ))
        })
        .collect()
}

/// Where a sample fell.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Site {
    /// An address in the executable, as its ELF virtual address.
    Exe(u64),
    /// Somewhere in this shared object.
    Lib(String),
    /// In no file-backed mapping.
    Unknown,
}

/// Places `pc` in the child's mappings, re-reading them once on a miss
/// (libraries map in after the exec stop).
fn site(
    pc: u64,
    pid: c_int,
    exe: &Path,
    maps: &mut Vec<Mapping>,
    segs: &[(u64, u64, u64)],
) -> Site {
    let find = |maps: &[Mapping]| maps.iter().position(|m| (m.start..m.end).contains(&pc));
    let at = match find(maps) {
        Some(at) => at,
        None => {
            *maps = read_maps(pid);
            match find(maps) {
                Some(at) => at,
                None => return Site::Unknown,
            }
        }
    };
    let m = &maps[at];
    if m.path != exe {
        let name = m.path.file_name().map(|n| n.to_string_lossy().into_owned());
        return Site::Lib(name.unwrap_or_default());
    }
    let file_offset = pc - m.start + m.offset;
    segs.iter()
        .find(|&&(off, _, size)| (off..off + size).contains(&file_offset))
        .map_or(Site::Unknown, |&(off, vaddr, _)| {
            Site::Exe(file_offset - off + vaddr)
        })
}

/// An inline chain: `(function, file:line)` from the innermost frame out.
type Chain = Vec<(String, String)>;

/// Resolves executable addresses to inline chains with `addr2line`.
fn symbolize(exe: &Path, addrs: &[u64]) -> std::io::Result<HashMap<u64, Chain>> {
    let mut child = Command::new("addr2line")
        .args(["-a", "-i", "-f", "-C", "-e"])
        .arg(exe)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()?;
    let mut stdin = child.stdin.take().expect("piped");
    let input: String = addrs.iter().map(|a| format!("0x{a:x}\n")).collect();
    let writer = std::thread::spawn(move || stdin.write_all(input.as_bytes()));
    let mut chains: HashMap<u64, Chain> = HashMap::new();
    let mut current: Option<u64> = None;
    let mut function: Option<String> = None;
    for line in BufReader::new(child.stdout.take().expect("piped")).lines() {
        let line = line?;
        if let Some(hex) = line.strip_prefix("0x").filter(|_| function.is_none()) {
            if let Ok(addr) = u64::from_str_radix(hex, 16) {
                current = Some(addr);
                chains.entry(addr).or_default();
                continue;
            }
        }
        match function.take() {
            None => function = Some(line),
            Some(f) => {
                if let Some(addr) = current {
                    chains
                        .entry(addr)
                        .or_default()
                        .push((f, short_location(&line)));
                }
            }
        }
    }
    writer.join().expect("writer thread")?;
    child.wait()?;
    Ok(chains)
}

/// `…/crates/netsim/src/sched.rs:534 (discriminator 2)` as
/// `netsim/src/sched.rs:534`: the last three path components.
fn short_location(loc: &str) -> String {
    let loc = loc.split(" (").next().unwrap_or(loc);
    let parts: Vec<&str> = loc.split('/').collect();
    parts[parts.len().saturating_sub(3)..].join("/")
}

/// Sorted `(count, label)` rows, largest first, ties by label.
fn ranked(counts: HashMap<String, u64>) -> Vec<(u64, String)> {
    let mut rows: Vec<(u64, String)> = counts.into_iter().map(|(k, v)| (v, k)).collect();
    rows.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    rows
}

struct Options {
    interval: Duration,
    top: usize,
    command: Vec<String>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        interval: Duration::from_millis(2),
        top: 30,
        command: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut number = || -> Result<u64, String> {
            let v = it.next().ok_or(format!("{arg} needs a value"))?;
            v.parse().map_err(|_| format!("{arg}: cannot read {v:?}"))
        };
        match arg.as_str() {
            "--interval-ms" => o.interval = Duration::from_millis(number()?.max(1)),
            "--top" => o.top = number()? as usize,
            "--" => {
                o.command = it.cloned().collect();
                break;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if o.command.is_empty() {
        return Err("usage: sampler [--interval-ms <n>] [--top <n>] -- <program> [args...]".into());
    }
    Ok(o)
}

fn run(o: &Options) -> Result<String, String> {
    let stderr = std::io::stderr()
        .as_fd()
        .try_clone_to_owned()
        .map_err(|e| e.to_string())?;
    let mut command = Command::new(&o.command[0]);
    command.args(&o.command[1..]).stdout(Stdio::from(stderr));
    // SAFETY: the hook only makes the one async-signal-safe system call.
    unsafe {
        command.pre_exec(|| {
            let null = std::ptr::null_mut::<c_void>();
            if ptrace(PTRACE_TRACEME, 0, null, null) == -1 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(())
        });
    }
    let child = command
        .spawn()
        .map_err(|e| format!("{}: {e}", o.command[0]))?;
    let pid = child.id() as c_int;
    if !matches!(wait(pid), Child::Stopped(SIGTRAP)) {
        return Err("the child did not stop at its exec".into());
    }
    let exe = std::fs::read_link(format!("/proc/{pid}/exe")).map_err(|e| e.to_string())?;
    let segs = load_segments(&exe);
    let mut maps = read_maps(pid);
    let mut sites: HashMap<Site, u64> = HashMap::new();
    let mut samples = 0u64;
    cont(pid, 0);
    'sampling: loop {
        std::thread::sleep(o.interval);
        // SAFETY: signals our own child only.
        if unsafe { kill(pid, SIGSTOP) } != 0 {
            break;
        }
        // Wait for that stop, passing any other signal on to the child.
        loop {
            match wait(pid) {
                Child::Gone => break 'sampling,
                Child::Stopped(SIGSTOP) => break,
                Child::Stopped(sig) => cont(pid, sig),
            }
        }
        if let Some(pc) = pc(pid) {
            *sites
                .entry(site(pc, pid, &exe, &mut maps, &segs))
                .or_default() += 1;
            samples += 1;
        }
        cont(pid, 0);
    }
    drop(child);

    let mut addrs: Vec<u64> = sites
        .keys()
        .filter_map(|s| match s {
            Site::Exe(a) => Some(*a),
            _ => None,
        })
        .collect();
    addrs.sort_unstable();
    let chains = symbolize(&exe, &addrs).map_err(|e| format!("addr2line: {e}"))?;
    let mut by_line: HashMap<String, u64> = HashMap::new();
    let mut by_function: HashMap<String, u64> = HashMap::new();
    for (site, n) in sites {
        let chain = match &site {
            Site::Exe(a) => chains.get(a).cloned().unwrap_or_default(),
            Site::Lib(name) => vec![(format!("[{name}]"), format!("[{name}]"))],
            Site::Unknown => Vec::new(),
        };
        let Some((inner_fn, inner_loc)) = chain.first() else {
            *by_line.entry("[unknown]".into()).or_default() += n;
            *by_function.entry("[unknown]".into()).or_default() += n;
            continue;
        };
        *by_line
            .entry(format!("{inner_loc}  {inner_fn}"))
            .or_default() += n;
        let mut seen: Vec<&str> = Vec::new();
        for (f, _) in &chain {
            if !seen.contains(&f.as_str()) {
                seen.push(f);
                *by_function.entry(f.clone()).or_default() += n;
            }
        }
    }
    let pct = |n: u64| 100.0 * n as f64 / samples.max(1) as f64;
    let mut out = format!(
        "# {samples} samples, one every {} ms, of: {}\n",
        o.interval.as_millis(),
        o.command.join(" ")
    );
    for (title, rows) in [
        ("self, by innermost source line", ranked(by_line)),
        (
            "inclusive, by function on the inline chain",
            ranked(by_function),
        ),
    ] {
        out += &format!("\n## {title}\n");
        for (n, label) in rows.into_iter().take(o.top) {
            out += &format!("{:6.2} % {n:>7}  {label}\n", pct(n));
        }
    }
    Ok(out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args).and_then(|o| run(&o)) {
        Ok(report) => print!("{report}"),
        Err(e) => {
            eprintln!("sampler: {e}");
            std::process::exit(2);
        }
    }
}
