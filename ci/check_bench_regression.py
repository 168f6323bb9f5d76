#!/usr/bin/env python3
"""Bench-regression gate for the Release CI job.

Compares the JSON the benches just wrote (BENCH_fleet.json,
BENCH_fixed.json, BENCH_scenarios.json, BENCH_checkpoint.json,
BENCH_batch.json, BENCH_replay.json) against the committed floors in
bench/bench_baselines.json and exits non-zero on any regression, so a
change that silently erodes fleet scaling, the fixed-point pipeline's
beat-level accuracy, the corruption robustness, the checkpoint
subsystem's blob economy, the batch backend, or the flight recorder's
replay fidelity fails the build instead of landing.

Every expected input is checked up front: a missing or unparseable
BENCH_*.json (or baseline key) produces one clear per-file/per-key
message naming the bench that should have written it — never a raw
traceback.

The fleet scaling floor only arms when the bench itself reports
scaling_enforced (>= 4 hardware threads on the runner); determinism
across worker counts is enforced unconditionally. The fixed-point gate
requires exact beat-count parity with the double engine, identical
quality flags, and worst-case PEP/LVET deviation under the committed
ceiling on the full study protocol. The scenario gate requires the
clean tier to stay a no-op with double/Q31 beat parity, and the
moderate-corruption tier to keep the committed detection sensitivity
and PPV floors on BOTH backends. The checkpoint gate requires
byte-identical round-trip and migrated-fleet output (deterministic, so
unconditional) plus blob sizes under the committed ceiling; the
save/restore latency and migration throughput are reported but not
gated (wall-time floors are runner-dependent noise). The replay gate
requires byte-identical verify and seek replays, recording overhead on
the push hot path under the committed ceiling on both backends, and —
the one deliberate exception to the no-wall-time rule — seek latency
under a budget DERIVED from BENCH_checkpoint.json's own measured
restore time plus a committed suffix allowance, so the two benches
share one floor instead of drifting apart.

The firmware-profile CI job runs `--only footprint` instead: it checks
just BENCH_footprint.json (written by ci/extract_footprint.py over
libicgkit_embedded.a and the linked embed_smoke image) against the
committed budgets: the archive's .text/.bss totals, and the .text of
the image a firmware actually links, which drops every member no ABI
call reaches. So a change that bloats the embedded library past its
flash/RAM allowance fails that job without requiring the hosted
benches to have run.
"""
import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Which bench executable (or tool) is responsible for each expected input.
BENCH_INPUTS = {
    "BENCH_fleet.json": "./bench_fleet_throughput",
    "BENCH_fixed.json": "./bench_fixed_pipeline",
    "BENCH_scenarios.json": "./bench_scenarios",
    "BENCH_checkpoint.json": "./bench_checkpoint",
    "BENCH_batch.json": "./bench_batch",
    "BENCH_replay.json": "./bench_replay",
    "BENCH_footprint.json": "ci/extract_footprint.py",
    "BENCH_server.json": "./bench_server",
}

# The hosted-bench set the Release job gates; the footprint and server
# inputs come from their own matrix jobs (`--only footprint`,
# `--only server`).
HOSTED_INPUTS = [n for n in BENCH_INPUTS
                 if n not in ("BENCH_footprint.json", "BENCH_server.json")]


def load_inputs(names):
    """Loads the baselines plus the named bench outputs, collecting one
    clear message per missing/invalid file instead of stopping at (or
    crashing on) the first."""
    problems = []
    results = {}

    def read_json(path: pathlib.Path, hint: str):
        if not path.exists():
            problems.append(f"{path.name}: missing — {hint}")
            return None
        try:
            with open(path) as f:
                return json.load(f)
        except json.JSONDecodeError as e:
            problems.append(f"{path.name}: invalid JSON ({e}) — {hint}")
            return None

    results["baselines"] = read_json(
        ROOT / "bench" / "bench_baselines.json",
        "the committed floors file must exist in the repo")
    for name in names:
        results[name] = read_json(
            ROOT / name, f"did {BENCH_INPUTS[name]} run before the gate?")

    if problems:
        print("BENCH GATE INPUTS MISSING OR INVALID:")
        for p in problems:
            print(f"  - {p}")
        sys.exit(1)
    return results


class Baselines:
    """Keyed access to the committed floors with a clear per-key error
    that names the bench binary whose gate needed the key."""

    def __init__(self, data, owner=None):
        self.data = data
        self.owner = owner

    def owned_by(self, binary):
        """A view whose missing-key errors blame `binary`'s gate."""
        return Baselines(self.data, binary)

    def __getitem__(self, key):
        if key not in self.data:
            blame = (f" (needed by the {self.owner} gate)"
                     if self.owner else "")
            sys.exit(f"FAIL: bench/bench_baselines.json has no key '{key}'"
                     f"{blame} — add the committed floor the gate expects")
        return self.data[key]


def check_footprint(footprint, baselines):
    """Gates the embedded library's .text/.bss totals and the linked
    client image's .text against the committed budgets, reporting actual
    vs budget (and the headroom or overshoot) so a failure says how far
    over it went."""
    failures = []
    text_kb = footprint.get("text_bytes", float("inf")) / 1024.0
    bss_kb = footprint.get("bss_bytes", float("inf")) / 1024.0
    data_kb = footprint.get("data_bytes", 0.0) / 1024.0
    linked_kb = footprint.get("linked_text_bytes", float("inf")) / 1024.0
    text_budget = baselines["footprint_max_text_kb"]
    bss_budget = baselines["footprint_max_bss_kb"]
    linked_budget = baselines["footprint_max_linked_text_kb"]
    image = footprint.get("linked_image", "linked image")

    for label, actual, budget in (
            (".text (flash)", text_kb, text_budget),
            (".bss (static RAM)", bss_kb, bss_budget),
            (f"{image} linked .text", linked_kb, linked_budget)):
        delta = actual - budget
        state = f"{-delta:.1f} KiB headroom" if delta <= 0 else f"{delta:.1f} KiB OVER"
        print(f"embedded {label}: {actual:.1f} KiB (budget {budget} KiB, {state})")
        if delta > 0:
            failures.append(
                f"embedded {label} {actual:.1f} KiB exceeds the {budget} KiB "
                f"budget by {delta:.1f} KiB — trim it or justify a budget bump "
                "in bench/bench_baselines.json")
    print(f"embedded .data: {data_kb:.1f} KiB (reported, not gated); "
          f"{footprint.get('members', 0)} objects, "
          f"compiler: {footprint.get('compiler') or 'unrecorded'}")
    worst = footprint.get("top_symbols", [])[:3]
    if worst:
        print("largest symbols: " + ", ".join(
            f"{s['symbol']} ({s['bytes'] / 1024.0:.1f} KiB)" for s in worst))
    return failures


def check_server(server, baselines):
    """Gates the loopback soak: zero beat-byte divergence and explicit-
    only backpressure are unconditional correctness contracts; the
    skewed-load phase must actually migrate; throughput and ack p99
    hold committed floors (deliberately loose — the soak runs on the
    scaled-down CI matrix entry, often a small runner)."""
    failures = []
    sessions = server.get("sessions", 0)
    min_sessions = baselines["server_min_sessions"]
    print(f"server soak sessions: {sessions} (floor {min_sessions})")
    if sessions < min_sessions:
        failures.append(
            f"server soak ran {sessions} sessions, floor is {min_sessions}")

    if not server.get("beat_bytes_identical", False):
        failures.append(
            "server-delivered beat bytes diverged from the direct in-process "
            "feed (wire/fleet determinism bug)")
    else:
        print("server determinism: every session's beat bytes identical to "
              "the direct feed")

    shed = server.get("shed_chunks", 1)
    if shed != 0:
        failures.append(
            f"{shed} chunks shed against a CACK-windowed client — a correct "
            "client must never be shed (flow-control contract)")
    else:
        print("server backpressure: zero sheds against the windowed client")

    migrations = server.get("skew_migrations", 0)
    if migrations < 1:
        failures.append(
            "skewed-load phase produced no migrations — the periodic "
            "rebalancer is not rebalancing")
    else:
        print(f"server rebalancing: {migrations} migrations under skewed load, "
              f"{server.get('skew_divergent', '?')} divergent post-migration "
              "streams")
    if server.get("skew_divergent", 1) != 0:
        failures.append("post-migration streams diverged from the direct feed")

    throughput = server.get("samples_per_sec", 0.0)
    throughput_floor = baselines["server_min_samples_per_sec"]
    print(f"server ingest: {throughput:.0f} samples/s (floor {throughput_floor:.0f})")
    if throughput < throughput_floor:
        failures.append(
            f"server ingest {throughput:.0f} samples/s below floor "
            f"{throughput_floor:.0f}")

    p99 = server.get("latency_p99_ms", float("inf"))
    p99_ceiling = baselines["server_max_p99_ms"]
    print(f"server chunk->CACK p99: {p99:.1f} ms (ceiling {p99_ceiling})")
    if p99 > p99_ceiling:
        failures.append(
            f"server chunk->CACK p99 {p99:.1f} ms exceeds ceiling {p99_ceiling} ms")
    return failures


def main() -> int:
    ap = argparse.ArgumentParser(description="bench/footprint regression gate")
    ap.add_argument("--only", choices=["footprint", "server"],
                    help="check a single gate instead of the hosted-bench set")
    args = ap.parse_args()

    if args.only == "server":
        inputs = load_inputs(["BENCH_server.json"])
        failures = check_server(
            inputs["BENCH_server.json"],
            Baselines(inputs["baselines"]).owned_by(
                BENCH_INPUTS["BENCH_server.json"]))
        if failures:
            print("\nSERVER GATE FAILED:")
            for f in failures:
                print(f"  - {f}")
            return 1
        print("\nserver gate: loopback soak within all floors")
        return 0

    if args.only == "footprint":
        inputs = load_inputs(["BENCH_footprint.json"])
        failures = check_footprint(
            inputs["BENCH_footprint.json"],
            Baselines(inputs["baselines"]).owned_by(
                BENCH_INPUTS["BENCH_footprint.json"]))
        if failures:
            print("\nFOOTPRINT GATE FAILED:")
            for f in failures:
                print(f"  - {f}")
            return 1
        print("\nfootprint gate: embedded library within budget")
        return 0

    inputs = load_inputs(HOSTED_INPUTS)
    base = Baselines(inputs["baselines"])
    # Per-gate views: a missing baseline key names the bench it belongs to.
    b_fleet = base.owned_by(BENCH_INPUTS["BENCH_fleet.json"])
    b_fixed = base.owned_by(BENCH_INPUTS["BENCH_fixed.json"])
    b_scen = base.owned_by(BENCH_INPUTS["BENCH_scenarios.json"])
    b_ckpt = base.owned_by(BENCH_INPUTS["BENCH_checkpoint.json"])
    b_batch = base.owned_by(BENCH_INPUTS["BENCH_batch.json"])
    b_replay = base.owned_by(BENCH_INPUTS["BENCH_replay.json"])
    fleet = inputs["BENCH_fleet.json"]
    fixed = inputs["BENCH_fixed.json"]
    scenarios = inputs["BENCH_scenarios.json"]
    checkpoint = inputs["BENCH_checkpoint.json"]
    failures = []

    sessions = fleet.get("sessions", 0)
    min_sessions = b_fleet["fleet_min_sessions"]
    print(f"fleet sessions: {sessions} (floor {min_sessions})")
    if sessions < min_sessions:
        failures.append(f"fleet bench ran {sessions} sessions, floor is {min_sessions}")

    if not fleet.get("identical_across_workers", False):
        failures.append("fleet beat streams differ across worker counts (determinism)")
    else:
        print("fleet determinism: byte-identical across worker counts")

    scaling = fleet.get("scaling_1_to_4", 0.0)
    scaling_floor = b_fleet["fleet_scaling_1_to_4_min"]
    if fleet.get("scaling_enforced", False):
        print(f"fleet scaling 1->4 workers: {scaling:.2f}x (floor {scaling_floor}x)")
        if scaling < scaling_floor:
            failures.append(
                f"fleet 1->4 worker scaling {scaling:.2f}x below floor {scaling_floor}x")
    else:
        hw = fleet.get("hardware_threads", 0)
        print(f"fleet scaling 1->4 workers: {scaling:.2f}x "
              f"(gate skipped: {hw} hardware threads — see bench/README.md "
              "for the local multi-core verification protocol)")

    if not fixed.get("beat_parity", False):
        failures.append("fixed pipeline lost beat-count parity with the double engine")
    else:
        print(f"fixed pipeline beat parity: {fixed.get('beats_compared', 0)} beats")
    flaw_mismatches = fixed.get("flaw_mismatches", 1)
    if flaw_mismatches != 0:
        failures.append(
            f"fixed pipeline quality gate disagrees on {flaw_mismatches} beats")
    pep_dev = fixed.get("worst_pep_dev_ms", float("inf"))
    lvet_dev = fixed.get("worst_lvet_dev_ms", float("inf"))
    pep_ceiling = b_fixed["fixed_max_pep_dev_ms"]
    lvet_ceiling = b_fixed["fixed_max_lvet_dev_ms"]
    print(f"fixed pipeline worst dev: PEP {pep_dev:.3f} ms (ceiling {pep_ceiling}), "
          f"LVET {lvet_dev:.3f} ms (ceiling {lvet_ceiling})")
    if pep_dev >= pep_ceiling:
        failures.append(f"fixed PEP deviation {pep_dev:.3f} ms >= ceiling {pep_ceiling}")
    if lvet_dev >= lvet_ceiling:
        failures.append(f"fixed LVET deviation {lvet_dev:.3f} ms >= ceiling {lvet_ceiling}")
    duty_ratio = fixed.get("duty_ratio", 0.0)
    duty_floor = b_fixed["fixed_min_duty_ratio"]
    print(f"fixed pipeline modeled duty-cycle ratio double/Q31: {duty_ratio:.2f}x "
          f"(floor {duty_floor}x)")
    if duty_ratio < duty_floor:
        failures.append(
            f"fixed duty-cycle ratio {duty_ratio:.2f}x below floor {duty_floor}x")

    if not scenarios.get("clean_noop_identical", False):
        failures.append("scenario clean tier altered the recording (must be a no-op)")
    if not scenarios.get("clean_beat_parity", False):
        failures.append("scenario clean tier lost double/Q31 beat parity")
    sens_floor = b_scen["scenario_min_sensitivity_moderate"]
    ppv_floor = b_scen["scenario_min_ppv_moderate"]
    for backend in ("double", "q31"):
        sens = scenarios.get(f"moderate_sensitivity_{backend}", 0.0)
        ppv = scenarios.get(f"moderate_ppv_{backend}", 0.0)
        print(f"scenario moderate tier [{backend}]: sensitivity {sens:.4f} "
              f"(floor {sens_floor}), PPV {ppv:.4f} (floor {ppv_floor})")
        if sens < sens_floor:
            failures.append(
                f"moderate-corruption sensitivity [{backend}] {sens:.4f} < {sens_floor}")
        if ppv < ppv_floor:
            failures.append(f"moderate-corruption PPV [{backend}] {ppv:.4f} < {ppv_floor}")

    # --- checkpoint/restore + live migration ------------------------------
    if not checkpoint.get("roundtrip_identical", False):
        failures.append("checkpoint round trip is not byte-identical (save/restore bug)")
    else:
        print("checkpoint round trip: byte-identical on both backends")
    if not checkpoint.get("migration_identical", False):
        failures.append(
            "migrated-fleet output differs from the pinned fleet (migration bug)")
    else:
        print(f"fleet migration: {checkpoint.get('migrations', 0)} live migrations, "
              "byte-identical to the pinned fleet")
    blob_ceiling_kb = b_ckpt["checkpoint_max_blob_kb"]
    for backend in ("double", "q31"):
        blob_kb = checkpoint.get(f"blob_bytes_{backend}", float("inf")) / 1024.0
        print(f"checkpoint blob [{backend}]: {blob_kb:.1f} KiB "
              f"(ceiling {blob_ceiling_kb} KiB)")
        if blob_kb > blob_ceiling_kb:
            failures.append(
                f"checkpoint blob [{backend}] {blob_kb:.1f} KiB "
                f"exceeds ceiling {blob_ceiling_kb} KiB")
    print(f"checkpoint latency (not gated): save "
          f"{checkpoint.get('save_us_double', 0.0):.0f}/"
          f"{checkpoint.get('save_us_q31', 0.0):.0f} us, restore "
          f"{checkpoint.get('restore_us_double', 0.0):.0f}/"
          f"{checkpoint.get('restore_us_q31', 0.0):.0f} us (double/q31); "
          f"{checkpoint.get('migrations_per_s', 0.0):.0f} migrations/s under load")

    # --- SIMD batch backend -----------------------------------------------
    batch = inputs["BENCH_batch.json"]
    if not batch.get("batch_identical", False):
        failures.append("batched beat streams differ from scalar (lane identity bug)")
    else:
        print("batch identity: lockstep lanes byte-identical to scalar sessions")
    if not batch.get("fleet", {}).get("identical", False):
        failures.append("batched fleet output differs from scalar fleet")
    isa = batch.get("simd", "?")
    w4 = batch.get("speedup_w4", 0.0)
    w8 = batch.get("speedup_w8", 0.0)
    w8_over_w4 = batch.get("w8_over_w4", 0.0)
    # Floors are ISA-tiered. The W=4 floor arms on any AVX2+ build (one
    # ymm per lane vector) but is lower on plain AVX2, where the fused
    # front sped the scalar BASELINE up too. The absolute W=8 floor arms
    # only under AVX-512 (one zmm per lane vector); on plain AVX2 the
    # two-half PairLanes64 lowering (see dsp/simd.h) is instead held to
    # the relative floor: W=8 must not lose to W=4.
    w4_floor = (b_batch["batch_min_speedup_w4"] if isa == "avx512"
                else b_batch["batch_min_speedup_w4_avx2"])
    w8_floor = b_batch["batch_min_speedup_w8"]
    w8_rel_floor = b_batch["batch_min_w8_over_w4"]
    if batch.get("w4_enforced", False):
        print(f"batch speedup W=4 [{isa}]: {w4:.2f}x (floor {w4_floor}x)")
        if w4 < w4_floor:
            failures.append(f"batch W=4 speedup {w4:.2f}x below floor {w4_floor}x")
    else:
        print(f"batch speedup W=4 [{isa}]: {w4:.2f}x (gate skipped: lane ISA "
              f"is {isa}, floor arms on avx2 or wider)")
    if batch.get("w8_enforced", False):
        print(f"batch speedup W=8 [{isa}]: {w8:.2f}x (floor {w8_floor}x)")
        if w8 < w8_floor:
            failures.append(f"batch W=8 speedup {w8:.2f}x below floor {w8_floor}x")
    else:
        print(f"batch speedup W=8 [{isa}]: {w8:.2f}x (gate skipped: lane ISA "
              f"is {isa}, floor arms on avx512)")
    if batch.get("w8_rel_enforced", False):
        print(f"batch W=8/W=4 ratio [{isa}]: {w8_over_w4:.2f}x "
              f"(floor {w8_rel_floor}x)")
        if w8_over_w4 < w8_rel_floor:
            failures.append(
                f"batch W=8 loses to W=4 ({w8_over_w4:.2f}x < {w8_rel_floor}x) — "
                "the wide lowering regressed (dsp/simd.h PairLanes64)")
    else:
        print(f"batch W=8/W=4 ratio [{isa}]: {w8_over_w4:.2f}x (gate skipped: "
              f"lane ISA is {isa}, floor arms on avx2 or wider)")
    profile = batch.get("profile", {})
    tail_us = profile.get("tail_us_per_beat", 0.0)
    front_frac = profile.get("front_fraction", 0.0)
    tail_ceiling = b_batch["batch_max_tail_us_per_beat"]
    if batch.get("w4_enforced", False):
        print(f"batch tail cost (W={profile.get('width', '?')}): "
              f"{tail_us:.1f} us/beat (ceiling {tail_ceiling}), "
              f"front fraction {front_frac:.2f}")
        if tail_us > tail_ceiling:
            failures.append(
                f"batched beat tail {tail_us:.1f} us/beat exceeds ceiling "
                f"{tail_ceiling} — the deferred-tail drain regressed")
    else:
        print(f"batch tail cost: {tail_us:.1f} us/beat (gate skipped: lane ISA "
              f"is {isa}, ceiling arms on avx2 or wider)")

    # --- flight recorder: record overhead + replay fidelity ---------------
    replay = inputs["BENCH_replay.json"]
    if not replay.get("verify_identical", False):
        failures.append(
            "flight-record replay is not byte-identical (determinism bug)")
    else:
        print(f"replay verify: byte-identical on both backends, "
              f"{replay.get('replay_speed_vs_realtime', 0.0):.0f}x realtime "
              "(speed reported, not gated)")
    if not replay.get("seek_identical", False):
        failures.append(
            "flight-record seek suffix diverged from straight-through replay")
    overhead_ceiling = b_replay["replay_max_record_overhead_pct"]
    for backend in ("double", "q31"):
        pct = replay.get(f"record_overhead_pct_{backend}", float("inf"))
        print(f"record overhead [{backend}]: {pct:.2f}% of push cost "
              f"(ceiling {overhead_ceiling}%)")
        if pct > overhead_ceiling:
            failures.append(
                f"recording overhead [{backend}] {pct:.2f}% exceeds the "
                f"{overhead_ceiling}% ceiling — the recorder tap is no longer "
                "cheap enough to leave on in production")
    # Seek latency budget is DERIVED, not committed: a seek is one
    # checkpoint restore (measured by bench_checkpoint on this same
    # runner, so runner speed cancels out) plus a bounded suffix replay
    # with its own committed allowance.
    restore_ms = max(checkpoint.get("restore_us_double", 0.0),
                     checkpoint.get("restore_us_q31", 0.0)) / 1000.0
    seek_budget_ms = restore_ms + b_replay["replay_seek_suffix_budget_ms"]
    seek_ms = replay.get("seek_ms", float("inf"))
    print(f"seek latency: {seek_ms:.2f} ms (budget {seek_budget_ms:.2f} ms = "
          f"{restore_ms:.2f} ms measured restore + "
          f"{b_replay['replay_seek_suffix_budget_ms']} ms suffix allowance)")
    if seek_ms > seek_budget_ms:
        failures.append(
            f"flight-record seek {seek_ms:.2f} ms exceeds the derived budget "
            f"{seek_budget_ms:.2f} ms (checkpoint restore + suffix allowance)")

    if failures:
        print("\nBENCH REGRESSION GATE FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nbench regression gate: all floors held")
    return 0


if __name__ == "__main__":
    sys.exit(main())
