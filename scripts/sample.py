#!/usr/bin/env python3
"""Report what `scripts/sample.c` recorded: where the CPU time went.

    python3 scripts/sample.py SAMPLE_OUT [--top N] [--insns N] [--match TEXT]

Prints three tables over the samples in SAMPLE_OUT (see `sample.c`'s
header for how to record one):
  self       the function each sample was interrupted in
  inclusive  every function on each sample's stack, counted once a sample
  insns      for the TOP functions by self samples (and those whose name
             contains TEXT), their hottest INSNS instructions, each as its
             share of the function's self samples, with its disassembly
             and the instruction before it (a stall is often charged to
             the instruction after the load that caused it)

Addresses are resolved through the mappings the sampler wrote, each file's
LOAD segments (`readelf -lW`), its symbols (`nm -C -n -S`, or `nm -D` when
stripped) and `objdump -d`. A return address is looked up one byte back,
inside the call that made it.
"""
import argparse
import bisect
import collections
import re
import subprocess
import sys


def run(*cmd):
    return subprocess.run(cmd, capture_output=True, text=True, check=False).stdout


class Image:
    """One mapped file: file offset -> address -> function."""

    def __init__(self, path):
        self.path = path
        self.loads = []  # (file offset, virtual address, size)
        for m in re.finditer(r"^\s*LOAD\s+(0x\w+)\s+(0x\w+)\s+\S+\s+(0x\w+)", run("readelf", "-lW", path), re.M):
            self.loads.append(tuple(int(x, 16) for x in m.groups()))
        self.starts, self.ends, self.names = [], [], []
        self.code = {}  # (start, end) -> [(address, instruction)]
        for dynamic in ([], ["-D"]):
            for line in run("nm", "-C", "-n", "-S", "--defined-only", *dynamic, path).splitlines():
                parts = line.split(" ", 3)
                if len(parts) == 4 and parts[2] in "tTwWiI":
                    start, size = int(parts[0], 16), int(parts[1], 16)
                    self.starts.append(start)
                    self.ends.append(start + size)
                    self.names.append(re.sub(r"::h[0-9a-f]{16}$", "", parts[3]))
            if self.starts:
                break

    def vaddr(self, offset):
        for file_off, vaddr, size in self.loads:
            if file_off <= offset < file_off + size:
                return vaddr + offset - file_off
        return offset

    def function(self, vaddr):
        i = bisect.bisect_right(self.starts, vaddr) - 1
        if i >= 0 and vaddr < max(self.ends[i], self.starts[i] + 1):
            return self.names[i]
        return None

    def insns(self, vaddr):
        """The instruction at `vaddr` and the one before it, disassembled
        from the start of their function so the two decode as executed."""
        i = bisect.bisect_right(self.starts, vaddr) - 1
        lo, hi = (self.starts[i], max(self.ends[i], vaddr + 1)) if i >= 0 else (vaddr, vaddr + 1)
        if (lo, hi) not in self.code:
            out = run("objdump", "-d", "--no-show-raw-insn", "-C", f"--start-address={lo:#x}",
                      f"--stop-address={hi:#x}", self.path)
            lines = [(int(m.group(1), 16), re.sub(r"\s+", " ", m.group(2)).strip())
                     for m in re.finditer(r"^\s*([0-9a-f]+):\s+(.*)$", out, re.M)]
            self.code[(lo, hi)] = lines
        lines = self.code[(lo, hi)]
        at = next((j for j, (a, _) in enumerate(lines) if a == vaddr), None)
        if at is None:
            return "?", "?"
        return (lines[at - 1][1] if at else "-"), lines[at][1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("samples")
    ap.add_argument("--top", type=int, default=12)
    ap.add_argument("--insns", type=int, default=4)
    ap.add_argument("--match", action="append", default=[])
    args = ap.parse_args()

    maps, stacks, dropped = [], [], 0
    for line in open(args.samples):
        kind, _, rest = line.rstrip("\n").partition(" ")
        if kind == "map":
            lo, hi, off, path = rest.split(" ", 3)
            maps.append((int(lo, 16), int(hi, 16), int(off, 16), path))
        elif kind == "stack":
            stacks.append([int(a, 16) for a in rest.split()])
        elif kind == "dropped":
            dropped = int(rest)
    maps.sort()
    images = {}

    def resolve(addr):
        """(image, virtual address, function) of one address."""
        i = bisect.bisect_right(maps, (addr, float("inf"))) - 1
        if i < 0 or addr >= maps[i][1]:
            return None, addr, f"[{addr:#x}]"
        lo, _, off, path = maps[i]
        image = images.get(path) or images.setdefault(path, Image(path))
        vaddr = image.vaddr(addr - lo + off)
        name = image.function(vaddr) or f"[{path.rsplit('/', 1)[-1]}+{vaddr:#x}]"
        return image, vaddr, name

    cache = {}

    def lookup(addr):
        if addr not in cache:
            cache[addr] = resolve(addr)
        return cache[addr]

    total = len(stacks)
    if not total:
        sys.exit("no samples")
    self_n, incl_n = collections.Counter(), collections.Counter()
    at_pc = collections.defaultdict(collections.Counter)  # function -> (image, vaddr) -> n
    for stack in stacks:
        image, vaddr, name = lookup(stack[0])
        self_n[name] += 1
        at_pc[name][(image, vaddr)] += 1
        incl_n.update({lookup(ret - 1)[2] for ret in stack[1:]} | {name})

    print(f"{total} samples ({dropped} dropped)")
    for title, counts in (("self", self_n), ("inclusive", incl_n)):
        print(f"\n## {title}\n{'share':>7} {'samples':>8}  function")
        for name, n in counts.most_common(args.top):
            print(f"{100 * n / total:6.1f}% {n:8}  {name}")

    shown = [name for name, _ in self_n.most_common(args.top)]
    shown += [name for name in self_n if any(m in name for m in args.match) and name not in shown]
    print(f"\n## insns\n{'share':>7} {'samples':>8}  address  instruction  [after: the one before it]")
    for name in shown:
        pcs = at_pc[name]
        n = sum(pcs.values())
        print(f"{name} ({n} samples, {100 * n / total:.1f}% of all)")
        for (image, vaddr), k in pcs.most_common(args.insns):
            before, insn = image.insns(vaddr) if image else ("?", "?")
            print(f"{100 * k / n:6.1f}% {k:8}  {vaddr:#x}  {insn}  [after: {before}]")


if __name__ == "__main__":
    main()
