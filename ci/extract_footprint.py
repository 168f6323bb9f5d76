#!/usr/bin/env python3
"""Extracts the embedded library's memory footprint into BENCH_footprint.json.

Runs binutils `size` over every member of libicgkit_embedded.a and sums
the .text/.data/.bss columns — the flash and static-RAM cost a firmware
image pays for linking the streaming core — then records the largest
symbols from `nm --print-size` so a size regression names its culprits
instead of just a number. It also records the .text section of the
client image given by --linked (embed_smoke, linked with --gc-sections):
what a firmware actually ships, since the link drops every archive
member no ABI call reaches. The JSON feeds
ci/check_bench_regression.py --only footprint, which gates both against
the committed budgets in bench/bench_baselines.json.

Usage:
  ci/extract_footprint.py --archive build-embedded/libicgkit_embedded.a \
      --linked build-embedded/embed_smoke \
      --out BENCH_footprint.json [--compiler "$(gcc --version | head -1)"]
"""
import argparse
import json
import pathlib
import subprocess
import sys


def run(cmd):
    try:
        return subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    except FileNotFoundError:
        sys.exit(f"FAIL: '{cmd[0]}' not found — binutils is required")
    except subprocess.CalledProcessError as e:
        sys.exit(f"FAIL: {' '.join(cmd)} exited {e.returncode}:\n{e.stderr}")


def sum_sections(archive: str):
    """Sums the berkeley-format text/data/bss columns over all members."""
    text = data = bss = 0
    members = 0
    for line in run(["size", archive]).splitlines():
        parts = line.split()
        # "   text    data     bss     dec     hex filename"
        if len(parts) < 6 or not parts[0].isdigit():
            continue
        text += int(parts[0])
        data += int(parts[1])
        bss += int(parts[2])
        members += 1
    if members == 0:
        sys.exit(f"FAIL: `size {archive}` reported no object members")
    return text, data, bss, members


def section_bytes(image: str, section: str):
    """Size of one named section of a linked image (`size -A`)."""
    for line in run(["size", "-A", image]).splitlines():
        parts = line.split()
        # "<section> <size> <addr>"
        if len(parts) == 3 and parts[0] == section and parts[1].isdigit():
            return int(parts[1])
    sys.exit(f"FAIL: `size -A {image}` reported no {section} section")


def top_symbols(archive: str, count: int):
    """The `count` largest defined symbols, for regression forensics."""
    symbols = []
    for line in run(["nm", "--print-size", "--size-sort", "--radix=d", archive]).splitlines():
        parts = line.split()
        # "<value> <size> <type> <name>"
        if len(parts) != 4 or not parts[1].isdigit():
            continue
        size, kind, name = int(parts[1]), parts[2], parts[3]
        if kind.lower() in ("u", "w"):
            continue
        symbols.append({"symbol": name, "bytes": size, "type": kind})
    symbols.sort(key=lambda s: s["bytes"], reverse=True)
    return symbols[:count]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--archive", required=True, help="static library to measure")
    ap.add_argument("--linked", required=True,
                    help="client image linked against the archive")
    ap.add_argument("--out", default="BENCH_footprint.json", help="output JSON path")
    ap.add_argument("--compiler", default="", help="compiler version string to record")
    ap.add_argument("--top", type=int, default=15, help="largest symbols to record")
    args = ap.parse_args()

    archive = pathlib.Path(args.archive)
    linked = pathlib.Path(args.linked)
    for path in (archive, linked):
        if not path.exists():
            sys.exit(f"FAIL: {path} does not exist — "
                     "build with -DICGKIT_EMBEDDED_PROFILE=ON first")

    text, data, bss, members = sum_sections(str(archive))
    linked_text = section_bytes(str(linked), ".text")
    result = {
        "archive": archive.name,
        "members": members,
        "text_bytes": text,
        "data_bytes": data,
        "bss_bytes": bss,
        "total_bytes": text + data + bss,
        "linked_image": linked.name,
        "linked_text_bytes": linked_text,
        "compiler": args.compiler,
        "top_symbols": top_symbols(str(archive), args.top),
    }
    with open(args.out, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    print(f"{archive.name}: .text {text / 1024.0:.1f} KiB, "
          f".data {data / 1024.0:.1f} KiB, .bss {bss / 1024.0:.1f} KiB "
          f"({members} members); {linked.name} .text "
          f"{linked_text / 1024.0:.1f} KiB -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
