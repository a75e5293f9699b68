#!/usr/bin/env python3
"""Sampling profile of one command's host CPU time, for boxes without perf.

Compiles a small LD_PRELOAD sampler into a temporary directory and runs
COMMAND under it.  Inside the command's process a CLOCK_MONOTONIC POSIX
timer raises SIGPROF every millisecond; the handler records
the call stack with glibc's backtrace() and appends it to a file.  At
startup the sampler also saves the process's memory map.  When the command
exits, this script symbolizes every address with addr2line (inlined frames
included) and prints:

  - per directory of the repository (src/rpc, src/util, perfbench, ...):
    "self", the share of samples whose innermost frame in the repository
    is in that directory (library time, such as malloc or an inlined
    std::map, is charged to the repository code that called it), and
    "inclusive", the share of samples with any frame in that directory;
  - per function: "self", the share of samples with that function as the
    innermost frame, and "inclusive", the share with it anywhere on the
    stack (the top --top of each);
  - with --under PATTERN: the functions called, directly or not, from the
    outermost frame whose name contains PATTERN, as shares of all samples
    and of PATTERN's own samples.  `--under RpcClient::call` shows whether
    any util::vsformat runs inside RPC calls.

Only the started process is sampled: the sampler removes LD_PRELOAD from
its environment, so any child it spawns runs unprofiled.  Profile a built
binary directly, not a wrapper that builds and then runs it:

  python3 perfbench/run.py --workload oltp_rmw --seed 1 --seconds 1 --trace 0
  python3 tools/host_profile.py --under RpcClient::call -- \\
      .bench_build/perfbench/perfbench --workload oltp_rmw --seed 1 \\
      --seconds 25 --trace 0

The command's own stdout and stderr pass through; the report follows on
stdout.  Symbol names and source lines need a binary built with -g (the
default RelWithDebInfo build has it); --root names the source tree it was
built from when that is another checkout.  Library code without debug
symbols (libc) is named after the nearest exported symbol, so read those
names as "somewhere in libc".  Exit status: the command's.

Usage:
  host_profile.py [--top N] [--under PATTERN]... [--root DIR] -- COMMAND [ARGS...]
"""

import argparse
import bisect
import collections
import os
import struct
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SAMPLER_C = r"""
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>
#include <unistd.h>

#define MAX_FRAMES 126

static int out_fd = -1;
static timer_t timer;

/* One record per sample: the frame count, then the frames, innermost
   first, as native words.  write() is async-signal-safe. */
static void on_sigprof(int sig, siginfo_t* info, void* ctx) {
  (void)sig;
  (void)info;
  (void)ctx;
  const int saved = errno;
  void* rec[MAX_FRAMES + 3];
  /* Frame 0 is this handler and frame 1 the signal trampoline: the
     interrupted instruction is frame 2. */
  const int n = backtrace(rec + 1, MAX_FRAMES + 2);
  if (n > 2) {
    rec[2] = (void*)(uintptr_t)(n - 2);
    ssize_t ignored = write(out_fd, rec + 2, (size_t)(n - 1) * sizeof(void*));
    (void)ignored;
  }
  errno = saved;
}

static void copy_maps(const char* out) {
  char path[4096];
  snprintf(path, sizeof path, "%s.maps", out);
  const int src = open("/proc/self/maps", O_RDONLY | O_CLOEXEC);
  const int dst = open(path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  char buf[65536];
  ssize_t n;
  while (src >= 0 && dst >= 0 && (n = read(src, buf, sizeof buf)) > 0) {
    if (write(dst, buf, (size_t)n) != n) break;
  }
  if (src >= 0) close(src);
  if (dst >= 0) close(dst);
}

__attribute__((constructor)) static void host_profile_start(void) {
  const char* out = getenv("HOST_PROFILE_OUT");
  if (out == NULL) return;
  unsetenv("LD_PRELOAD");  /* children run unprofiled */
  out_fd = open(out, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (out_fd < 0) return;
  void* warm[4];
  backtrace(warm, 4);  /* loads the unwinder before the first signal */
  copy_maps(out);
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  struct sigevent sev;
  memset(&sev, 0, sizeof sev);
  sev.sigev_notify = SIGEV_SIGNAL;
  sev.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_MONOTONIC, &sev, &timer) != 0) return;
  struct itimerspec its;
  its.it_interval.tv_sec = 0;
  its.it_interval.tv_nsec = 1000000;
  its.it_value = its.it_interval;
  timer_settime(timer, 0, &its, NULL);
}

__attribute__((destructor)) static void host_profile_stop(void) {
  if (out_fd < 0) return;
  timer_delete(timer);
  signal(SIGPROF, SIG_IGN);
  close(out_fd);
  out_fd = -1;
}
"""


def build_sampler(tmp):
    src = os.path.join(tmp, "sampler.c")
    lib = os.path.join(tmp, "sampler.so")
    with open(src, "w", encoding="utf-8") as f:
        f.write(SAMPLER_C)
    subprocess.run(["cc", "-O2", "-shared", "-fPIC", "-o", lib, src, "-lrt"],
                   check=True)
    return lib


def read_samples(path):
    word = struct.calcsize("P")
    fmt = "<Q" if word == 8 else "<I"
    with open(path, "rb") as f:
        data = f.read()
    samples = []
    pos = 0
    while pos + word <= len(data):
        (n,) = struct.unpack_from(fmt, data, pos)
        pos += word
        if pos + n * word > len(data):
            break  # a record cut short at exit
        samples.append(struct.unpack_from(f"<{n}{fmt[1]}", data, pos))
        pos += n * word
    return samples


def read_maps(path):
    """Executable file mappings: sorted (start, end, file offset, path)."""
    maps = []
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        for line in f:
            parts = line.split(None, 5)
            if len(parts) < 6 or "x" not in parts[1]:
                continue
            start, end = (int(v, 16) for v in parts[0].split("-"))
            name = parts[5].strip()
            if name.startswith("/"):
                maps.append((start, end, int(parts[2], 16), name))
    maps.sort()
    return maps


def load_segments(path):
    """PT_LOAD (file offset, virtual address, file size) of an ELF file."""
    out = subprocess.run(["readelf", "-lW", path], capture_output=True,
                         text=True).stdout
    segs = []
    for line in out.splitlines():
        parts = line.split()
        if parts and parts[0] == "LOAD":
            segs.append((int(parts[1], 16), int(parts[2], 16),
                         int(parts[4], 16)))
    return segs


def symbolize(samples, maps):
    """{(address, is_leaf): [(function, file), ...] innermost first}."""
    starts = [m[0] for m in maps]
    wanted = collections.defaultdict(set)  # path -> {(vaddr, key)}
    for stack in samples:
        for i, addr in enumerate(stack):
            idx = bisect.bisect_right(starts, addr) - 1
            if idx < 0 or addr >= maps[idx][1]:
                continue
            start, _, offset, path = maps[idx]
            # A return address points after its call: look up the call.
            wanted[path].add((addr - start + offset - (0 if i == 0 else 1),
                              (addr, i == 0)))
    frames = {}
    for path, entries in wanted.items():
        segs = load_segments(path)
        queries = []
        for file_off, key in sorted(entries):
            for seg_off, seg_vaddr, seg_size in segs:
                if seg_off <= file_off < seg_off + seg_size:
                    queries.append((file_off - seg_off + seg_vaddr, key))
                    break
        if not queries:
            continue
        proc = subprocess.run(
            ["addr2line", "-a", "-f", "-C", "-i", "-e", path],
            input="".join(f"{v:x}\n" for v, _ in queries),
            capture_output=True, text=True)
        groups = []
        for line in proc.stdout.splitlines():
            if line.startswith("0x"):
                groups.append([])
            elif groups:
                groups[-1].append(line)
        for (_, key), lines in zip(queries, groups):
            chain = []
            for j in range(0, len(lines) - 1, 2):
                func = lines[j]
                if func == "??":
                    func = f"?? ({os.path.basename(path)})"
                chain.append((func, lines[j + 1].split(":")[0]))
            frames[key] = chain or [(f"?? ({os.path.basename(path)})", "")]
    return frames


def repo_dir(source, root):
    """'src/rpc' for a file under root/src/rpc, None outside root."""
    if not source or not source.startswith(root + os.sep):
        return None
    parts = os.path.relpath(source, root).split(os.sep)
    if len(parts) < 2:
        return None
    if parts[0] == "src" and len(parts) > 2:
        return "src/" + parts[1]
    return parts[0]


def expand(samples, frames):
    """Each sample as [(function, file), ...], innermost first."""
    out = []
    for stack in samples:
        chain = []
        for i, addr in enumerate(stack):
            chain.extend(frames.get((addr, i == 0), [("?? (unmapped)", "")]))
        out.append(chain)
    return out


def short(name, width=110):
    return name if len(name) <= width else name[:width - 3] + "..."


def table(title, rows, total, top):
    print(f"\n{title}")
    print(f"{'self%':>7} {'incl%':>7}  name")
    for name, (self_n, incl_n) in rows[:top]:
        print(f"{100.0 * self_n / total:7.2f} {100.0 * incl_n / total:7.2f}  "
              f"{short(name)}")


def report(stacks, root, top, unders):
    total = len(stacks)
    print(f"\nhost_profile: {total} samples")
    if total == 0:
        return
    dir_self = collections.Counter()
    dir_incl = collections.Counter()
    fn_self = collections.Counter()
    fn_incl = collections.Counter()
    for chain in stacks:
        fn_self[chain[0][0]] += 1
        for func in {f for f, _ in chain}:
            fn_incl[func] += 1
        dirs = [repo_dir(src, root) for _, src in chain]
        dir_self[next((d for d in dirs if d), "(outside the repository)")] += 1
        for d in {d for d in dirs if d}:
            dir_incl[d] += 1
    rows = sorted(((d, (dir_self[d], dir_incl[d]))
                   for d in set(dir_self) | set(dir_incl)),
                  key=lambda r: (-r[1][0], -r[1][1], r[0]))
    table("per directory (self: innermost frame in the repository)", rows,
          total, len(rows))
    rows = sorted(((f, (fn_self[f], fn_incl[f])) for f in fn_incl),
                  key=lambda r: (-r[1][0], -r[1][1], r[0]))
    table(f"per function, by self (top {top})", rows, total, top)
    rows.sort(key=lambda r: (-r[1][1], -r[1][0], r[0]))
    table(f"per function, by inclusive (top {top})", rows, total, top)

    for pattern in unders:
        under = collections.Counter()
        hits = 0
        for chain in stacks:
            outer = max((i for i, (f, _) in enumerate(chain) if pattern in f),
                        default=None)
            if outer is None:
                continue
            hits += 1
            for func in {f for f, _ in chain[:outer]}:
                under[func] += 1
        print(f"\nunder '{pattern}': {hits} samples "
              f"({100.0 * hits / total:.2f}% of all)")
        if hits == 0:
            continue
        print(f"{'all%':>7} {'of it%':>7}  function")
        for func, n in sorted(under.items(), key=lambda r: (-r[1], r[0]))[:top]:
            print(f"{100.0 * n / total:7.2f} {100.0 * n / hits:7.2f}  "
                  f"{short(func)}")


def main(argv):
    p = argparse.ArgumentParser(
        usage=__doc__.split("Usage:")[1].strip(),
        description=__doc__.splitlines()[0])
    p.add_argument("--top", type=int, default=30,
                   help="functions listed per table (default 30)")
    p.add_argument("--under", action="append", default=[],
                   help="list what runs under frames matching PATTERN")
    p.add_argument("--root", default=ROOT,
                   help="source tree the program was built from (default: "
                        "this repository)")
    p.add_argument("command", nargs=argparse.REMAINDER)
    args = p.parse_args(argv[1:])
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        p.error("no command given (put it after --)")

    with tempfile.TemporaryDirectory(prefix="host_profile_") as tmp:
        lib = build_sampler(tmp)
        out = os.path.join(tmp, "samples.bin")
        env = dict(os.environ, LD_PRELOAD=lib, HOST_PROFILE_OUT=out)
        code = subprocess.run(command, env=env).returncode
        sys.stdout.flush()
        if not os.path.exists(out) or not os.path.exists(out + ".maps"):
            print("host_profile: the command wrote no samples (is it a "
                  "dynamically linked program?)", file=sys.stderr)
            return code or 1
        samples = read_samples(out)
        maps = read_maps(out + ".maps")
        stacks = expand(samples, symbolize(samples, maps))
    report(stacks, os.path.realpath(args.root), args.top, args.under)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
