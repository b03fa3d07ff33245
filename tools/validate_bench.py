#!/usr/bin/env python3
"""Validate nvtraverse benchmark/telemetry artifacts.

Usage: tools/validate_bench.py FILE [FILE ...]

Each FILE is a JSON artifact produced by `bench/main.exe` or
`nvtsim mutate`. The artifact's `schema` tag picks the validator:

    nvtraverse-panels/1    bench panels --json   (BENCH_panels.json)
    nvtraverse-micro/1     bench micro --json    (BENCH_micro.json)
    nvtraverse-selfperf/1  bench selfperf --json (legacy, pre-domains)
    nvtraverse-selfperf/2  bench selfperf --json (BENCH_selfperf.json)
    nvtraverse-service/1   bench service --json  (BENCH_service.json)
    nvtraverse-recovery/1  bench recovery-service --json (BENCH_recovery.json)
    nvtraverse-mutation/1  nvtsim mutate (legacy, display-only verdicts)
    nvtraverse-mutation/2  nvtsim mutate         (MUTATION_report.json)
    nvtraverse-optimizer/1 bench optimizer --json (BENCH_optimizer.json)
    nvtraverse-contenders/1 bench contenders --json (BENCH_contenders.json)

Validators assert structural invariants only (series present, sums
consistent, gate coherent with verdicts) — never absolute performance
numbers, which vary across machines. Exit status is non-zero on the
first violated invariant.
"""

import json
import sys


class Invalid(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise Invalid(msg)


def site_sums_match(sites, totals, label):
    for k in ("flushes", "fences", "cas"):
        s = sum(site[k] for site in sites)
        require(s == totals[k], f"{label}: site {k} sum {s} != total {totals[k]}")


# ---------------------------------------------------------------- panels


def validate_panels(panels):
    checked = 0
    for panel in panels["panels"]:
        series = {s["policy"]: s for s in panel["series"] if s["policy"]}
        if panel["id"] == "5a":
            for policy in ("volatile", "nvt", "izraelevitz", "flit"):
                require(policy in series, f"panel 5a: missing series for {policy}")
        for s in panel["series"]:
            require(s["points"], f"series {s['label']} has no sweep points")
            for pt in s["points"]:
                for key in ("mops", "flushes_per_op", "fences_per_op"):
                    require(key in pt, f"{s['label']}: point missing {key}")
            site_sums_match(s["sites"], s["totals"], s["label"])
            if s["durable"]:
                named = [x["site"] for x in s["sites"] if x["site"] != "app"]
                require(
                    len(named) >= 3,
                    f"durable series {s['label']} attributes only {named}",
                )
            checked += 1
    return f"{len(panels['panels'])} panels, {checked} series"


# ----------------------------------------------------------------- micro


def validate_micro(micro):
    names = {r["name"] for r in micro["results"]}
    for want in ("orig/member", "nvt/member", "izr/member"):
        require(any(want in n for n in names), f"missing micro result {want}")
    return f"{len(micro['results'])} micro results"


# -------------------------------------------------------------- selfperf


def validate_selfperf(sp):
    panels = {p["panel"] for p in sp["panels"]}
    require(panels == {"list", "hash", "evict"}, f"unexpected panels {panels}")
    threads = sorted({r["threads"] for r in sp["rows"]})
    for p in panels:
        rows = [r for r in sp["rows"] if r["panel"] == p]
        require(
            sorted(r["threads"] for r in rows) == threads,
            f"panel {p} does not cover the thread sweep {threads}",
        )
        for r in rows:
            require(r["steps"] > 0 and r["seconds"] > 0, f"degenerate row {r}")
            # both fields serialize at 6 significant digits
            rate = r["steps"] / r["seconds"]
            require(
                abs(rate - r["steps_per_sec"]) < 1e-4 * rate,
                f"inconsistent rate in row {r}",
            )
    return f"{len(sp['rows'])} rows over threads {threads}"


def validate_selfperf2(sp):
    base = validate_selfperf(sp)
    drows = sp["domain_rows"]
    require(drows, "schema /2 without domain_rows")
    domains = sorted({r["domains"] for r in drows})
    require(1 in domains, "domain sweep has no domains=1 baseline")
    for r in drows:
        require(r["domains"] >= 1, f"degenerate domain count in {r}")
        require(r["threads_per_domain"] >= 1, f"degenerate threads in {r}")
        require(r["steps"] > 0 and r["seconds"] > 0, f"degenerate row {r}")
        rate = r["steps"] / r["seconds"]
        require(
            abs(rate - r["steps_per_sec"]) < 1e-4 * rate,
            f"inconsistent rate in domain row {r}",
        )
    # no speedup assertion: the series records whatever the host's core
    # count delivers, and a single-core runner legitimately reports a
    # flat rate with D-fold wall time
    return f"{base}; {len(drows)} domain rows over domains {domains}"


# --------------------------------------------------------------- service


def validate_service(svc):
    modes = {m["mode"]: m for m in svc["modes"]}
    require("per_op" in modes, f"no per_op mode in {sorted(modes)}")
    grouped = [m for n, m in modes.items() if n != "per_op"]
    require(grouped, "no grouped mode in the sweep")
    for m in svc["modes"]:
        require(m["violations"] == [], f"{m['mode']}: {m['violations']}")
        require(
            m["acked"] == svc["requests"],
            f"{m['mode']}: acked {m['acked']} != requests {svc['requests']}",
        )
        require(m["committed"] == svc["requests"], f"{m['mode']}: commit shortfall")
        lat = m["latency"]
        require(
            0 < lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"],
            f"{m['mode']}: unordered latency percentiles {lat}",
        )
        site_sums_match(m["sites"], m["totals"], m["mode"])
    for g in grouped:
        require(
            g["fences_per_op"] < modes["per_op"]["fences_per_op"],
            f"{g['mode']}: grouping saves no fences "
            f"({g['fences_per_op']} vs {modes['per_op']['fences_per_op']})",
        )
    return "%d modes, per-op %.3f vs grouped %s fences/op" % (
        len(svc["modes"]),
        modes["per_op"]["fences_per_op"],
        ["%.3f" % g["fences_per_op"] for g in grouped],
    )


# -------------------------------------------------------------- recovery


def validate_recovery(rec):
    rows = rec["rows"]
    require(rows, "no rows in the recovery bench")
    cells = {}
    for r in rows:
        key = (r["requests"], r["domains"], r["checkpoint_interval"])
        require(key not in cells, f"duplicate cell {key}")
        cells[key] = r
        require(r["violations"] == [], f"{key}: {r['violations']}")
        require(r["crashes_fired"] == 1, f"{key}: {r['crashes_fired']} crashes")
        require(r["acked"] == r["requests"], f"{key}: acked {r['acked']}")
        require(r["committed"] >= r["requests"], f"{key}: commit shortfall")
        for k in ("replayed", "recovery_steps", "recovery_time", "truncated"):
            require(r[k] >= 0, f"{key}: negative {k}")
        if r["checkpoint_interval"] == 0:
            require(r["checkpoints"] == 0, f"{key}: baseline took checkpoints")
            require(r["truncated"] == 0, f"{key}: baseline truncated the log")
        else:
            require(r["checkpoints"] > 0, f"{key}: no checkpoints committed")

    sizes = sorted({n for n, _, _ in cells})
    n_min, n_max = sizes[0], sizes[-1]
    checkpointed = [k for k in cells if k[2] > 0]
    require(checkpointed, "no checkpointed cells in the sweep")
    for n, d, i in checkpointed:
        base = cells.get((n, d, 0))
        require(base is not None, f"({n},{d}): no full-replay baseline row")
        require(
            cells[(n, d, i)]["replayed"] <= base["replayed"],
            f"({n},{d},{i}): replayed {cells[(n, d, i)]['replayed']} "
            f"exceeds baseline {base['replayed']}",
        )
        if n == n_max:
            # the flatness claim's load-bearing edge: at the longest
            # log, checkpointed replay must be well under full replay
            require(
                cells[(n, d, i)]["replayed"] * 2 <= base["replayed"],
                f"({n},{d},{i}): replay {cells[(n, d, i)]['replayed']} is "
                f"not under half the baseline {base['replayed']} — "
                f"recovery is not flat in log length",
            )
    for d in sorted({d for _, d, _ in cells}):
        small, big = cells.get((n_min, d, 0)), cells.get((n_max, d, 0))
        require(
            small and big and big["replayed"] > small["replayed"],
            f"domains={d}: full-replay baseline does not grow with the log",
        )
    require(rec["gate_ok"] is True, "bench recorded gate_ok=false")
    return (
        f"{len(rows)} cells over requests {sizes}, "
        f"max-log replay {cells[(n_max, 1, 0)]['replayed']} (full) vs "
        + str(
            [
                cells[(n_max, 1, i)]["replayed"]
                for (n, d, i) in sorted(checkpointed)
                if n == n_max and d == 1
            ]
        )
        + " (checkpointed)"
    )


# -------------------------------------------------------------- mutation

ATTACK_KINDS = {"crash", "stall", "evict", "window", "svc-crash"}

# Policies whose minimality claims the repo publishes head-to-head: an
# unexpected-unkilled site under any of these fails the gate (mirrors
# Mutlab.gated_policies). Other policies' unkilled sites are findings.
GATED_POLICIES = {"nvt", "soft", "det"}


def validate_mutation(rep):
    gate = rep["gate"]
    flavours = rep["flavours"]
    require(flavours, "no flavours in the report")

    # Recompute the gate from the verdicts and check it matches.
    unexpected, control_failures = [], []
    for fr in flavours:
        key = (fr["structure"], fr["policy"])
        require(
            isinstance(fr["durable"], bool), f"{key}: durable is not a bool"
        )
        probe = fr["probe"]
        for k in ("steps", "flushes", "fences", "cas"):
            require(probe[k] >= 0, f"{key}: negative probe {k}")
        if not fr["durable"]:
            require(fr["sites"] == [], f"{key}: volatile flavour has sites")
            continue
        require(fr["control"]["runs"] > 0, f"{key}: durable flavour not attacked")
        if fr["control"]["violations"]:
            control_failures.append(key)
        for sr in fr["sites"]:
            site = sr["site"]
            require(
                sr["flushes"] + sr["fences"] > 0,
                f"{key}/{site}: enumerated but never executed in the probe",
            )
            require(sr["runs"] > 0, f"{key}/{site}: zero battery runs")
            if sr["verdict"] == "necessary":
                kill = sr["kill"]
                require(
                    kill["attack"]["kind"] in ATTACK_KINDS,
                    f"{key}/{site}: unknown attack kind {kill['attack']}",
                )
                require(kill["detail"], f"{key}/{site}: kill without evidence")
                require(
                    1 <= kill["runs_to_kill"] <= sr["runs"],
                    f"{key}/{site}: runs_to_kill {kill['runs_to_kill']} "
                    f"outside 1..{sr['runs']}",
                )
            elif sr["verdict"] == "unkilled":
                if sr["expected"]:
                    require(
                        sr.get("reason"),
                        f"{key}/{site}: expected-unkilled without a reason",
                    )
                elif fr["policy"] in GATED_POLICIES:
                    unexpected.append(key + (site,))
            else:
                raise Invalid(f"{key}/{site}: unknown verdict {sr['verdict']!r}")

    gate_unexpected = [
        (g["structure"], g["policy"], g["detail"])
        for g in gate["unexpected_unkilled"]
    ]
    require(
        sorted(gate_unexpected) == sorted(unexpected),
        f"gate.unexpected_unkilled {gate_unexpected} does not match "
        f"recomputed {unexpected}",
    )
    gate_controls = [(g["structure"], g["policy"]) for g in gate["control_failures"]]
    require(
        sorted(gate_controls) == sorted(control_failures),
        f"gate.control_failures {gate_controls} does not match "
        f"recomputed {control_failures}",
    )
    require(
        gate["ok"] == (not unexpected and not control_failures),
        f"gate.ok={gate['ok']} inconsistent with "
        f"unexpected={unexpected} controls={control_failures}",
    )

    n_sites = sum(len(fr["sites"]) for fr in flavours)
    n_nec = sum(
        1
        for fr in flavours
        for sr in fr["sites"]
        if sr["verdict"] == "necessary"
    )
    return (
        f"{len(flavours)} flavours, {n_sites} sites "
        f"({n_nec} necessary), gate {'OK' if gate['ok'] else 'FAILED'}"
    )


def validate_mutation2(rep):
    base = validate_mutation(rep)
    require(isinstance(rep["optimized"], bool), "optimized is not a bool")

    # The machine-readable candidate_redundant array is exactly the set
    # of Unkilled verdicts — it is what the optimizer derives elision
    # plans from, so any drift between it and the per-site verdicts
    # would let an unproven elision ship.
    recomputed = {}
    for fr in rep["flavours"]:
        for sr in fr["sites"]:
            if sr["verdict"] == "unkilled":
                recomputed[(fr["structure"], fr["policy"], sr["site"])] = sr[
                    "expected"
                ]
    listed = {}
    for e in rep["candidate_redundant"]:
        key = (e["structure"], e["policy"], e["site"])
        require(key not in listed, f"duplicate candidate entry {key}")
        require(isinstance(e["expected"], bool), f"{key}: expected not a bool")
        require(
            bool(e.get("reason")) == e["expected"],
            f"{key}: reason present iff the site is allowlisted-expected",
        )
        listed[key] = e["expected"]
    require(
        listed == recomputed,
        f"candidate_redundant {sorted(listed)} does not match the "
        f"unkilled verdicts {sorted(recomputed)}",
    )
    return f"{base}; {len(listed)} candidate-redundant sites"


# ------------------------------------------------------------- optimizer


def close(a, b, tol=1e-3):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def validate_optimizer(opt):
    rows = opt["structures"]
    require(rows, "no structure rows")
    structures = {r["structure"] for r in rows}
    for want in ("list", "hash"):
        require(want in structures, f"missing structure {want}")

    big_cuts = []
    for r in rows:
        key = (r["structure"], r["policy"])
        require(key != (None, None), "row without keys")
        base, o = r["base"], r["optimized"]
        for s in (base, o):
            for k in (
                "flushes",
                "fences",
                "coalesced_flushes",
                "deferred_flushes",
                "elided_flushes",
                "elided_fences",
            ):
                require(s[k] >= 0, f"{key}: negative {k}")
        if not r["durable"]:
            # volatile control: the optimizer must have nothing to act
            # on — a nonzero count here means a flush leaked into the
            # uninstrumented baseline
            require(r["elided"] == [], f"{key}: volatile row elides sites")
            require(
                base["flushes"] == base["fences"] == 0
                and o["flushes"] == o["fences"] == 0,
                f"{key}: volatile row has persistence traffic",
            )
        # bit-identical operation histories are the whole point: the
        # optimizer may only change WHEN lines persist, never results
        require(r["identical_histories"] is True, f"{key}: histories diverge")
        require(
            base["history_digest"] == o["history_digest"],
            f"{key}: history digests differ",
        )
        require(
            o["flushes"] <= base["flushes"] and o["fences"] <= base["fences"],
            f"{key}: optimizer increased persistence traffic",
        )
        for field, red in (("flushes", "flush_reduction"),
                           ("fences", "fence_reduction")):
            want = 1.0 - o[field] / base[field] if base[field] else 0.0
            require(
                close(r[red], want),
                f"{key}: {red} {r[red]} != recomputed {want:.6f}",
            )
        if r["durable"] and r["flush_reduction"] >= 0.15:
            big_cuts.append(key)
    require(
        len(big_cuts) >= 2,
        f"only {big_cuts} reach a 15% flushes/op reduction (need 2 pairs)",
    )

    svc = opt["service"]
    require(svc, "no service rows")
    labels = {s["label"]: s for s in svc}
    require("per_op" in labels, f"no per_op service row in {sorted(labels)}")
    scalar_base = labels["per_op"]["base"]["fences_per_op"]
    for s in svc:
        for leg in ("base", "optimized"):
            require(
                s[leg]["violations"] == [],
                f"service {s['label']}/{leg}: {s[leg]['violations']}",
            )
            require(s[leg]["acked"] > 0, f"service {s['label']}/{leg}: no acks")
        require(
            s["optimized"]["fences_per_op"] < s["base"]["fences_per_op"],
            f"service {s['label']}: optimizer saves no fences",
        )
        if s["multi_pct"] > 0:
            require(
                s["base"]["multi_puts"] > 0,
                f"service {s['label']}: multi-put mix issued no multi-puts",
            )
            require(
                s["optimized"]["fences_per_key"] < scalar_base,
                f"service {s['label']}: multi-put does not amortize fences "
                f"below the scalar per-op baseline {scalar_base}",
            )
    require(opt["gate_ok"] is True, "bench recorded gate_ok=false")
    return (
        f"{len(rows)} structure rows ({len(big_cuts)} with >=15% flush cut: "
        f"{big_cuts}), {len(svc)} service rows, per-op fences/op "
        f"{scalar_base:.3f} -> {labels['per_op']['optimized']['fences_per_op']:.3f}"
    )


# ----------------------------------------------------------- contenders


def validate_contenders(doc):
    micro = doc["micro"]
    require(micro, "no micro rows")
    by_key = {}
    for r in micro:
        key = (r["structure"], r["contender"])
        require(key not in by_key, f"duplicate micro row {key}")
        require(r["ops"] > 0, f"{key}: no operations")
        for k in ("flushes", "fences"):
            require(r[k] >= 0, f"{key}: negative {k}")
            want = r[k] / r["ops"]
            require(
                close(r[f"{k}_per_op"], want),
                f"{key}: {k}_per_op {r[f'{k}_per_op']} != recomputed {want:.6f}",
            )
        require(
            isinstance(r["optimized"], bool), f"{key}: optimized not a bool"
        )
        require(
            r["optimized"] == (r["contender"] == "nvt+opt"),
            f"{key}: optimized flag inconsistent with contender key",
        )
        by_key[key] = r
    for s in ("hash", "list"):
        for c in ("nvt", "nvt+opt", "soft", "det"):
            require((s, c) in by_key, f"missing micro row {(s, c)}")

    # The headline gate, recomputed: SOFT under-persists plain nvt on
    # the hash workload, and the optimizer never increases traffic.
    ok = True
    soft, nvt = by_key[("hash", "soft")], by_key[("hash", "nvt")]
    if not (
        soft["flushes_per_op"] < nvt["flushes_per_op"]
        and soft["fences_per_op"] < nvt["fences_per_op"]
    ):
        ok = False
    for s in ("hash", "list"):
        base, opt = by_key[(s, "nvt")], by_key[(s, "nvt+opt")]
        if opt["flushes"] > base["flushes"] or opt["fences"] > base["fences"]:
            ok = False

    svc = doc["service"]
    require(svc, "no service rows")
    seen = set()
    for x in svc:
        c = x["contender"]
        require(c not in seen, f"duplicate service row {c}")
        seen.add(c)
        require(x["acked"] > 0, f"service {c}: no acks")
        require(
            x["detect"] == (x["policy"] == "det"),
            f"service {c}: detect mode armed iff the det policy runs",
        )
        if x["violations"]:
            ok = False
    for c in ("nvt", "nvt+opt", "soft", "det"):
        require(c in seen, f"missing service row {c}")

    require(
        doc["gate_ok"] == ok,
        f"gate_ok={doc['gate_ok']} inconsistent with recomputed {ok}",
    )
    require(doc["gate_ok"] is True, "bench recorded gate_ok=false")
    gap = 1.0 - soft["flushes_per_op"] / nvt["flushes_per_op"]
    opt_gap = (
        1.0 - by_key[("hash", "nvt+opt")]["flushes_per_op"] / nvt["flushes_per_op"]
    )
    return (
        f"{len(micro)} micro rows, {len(svc)} service rows; hash flush/op "
        f"cut vs nvt: soft {100 * gap:.1f}%, nvt+opt {100 * opt_gap:.1f}%"
    )


# ------------------------------------------------------------------ main

VALIDATORS = {
    "nvtraverse-panels/1": validate_panels,
    "nvtraverse-micro/1": validate_micro,
    "nvtraverse-selfperf/1": validate_selfperf,
    "nvtraverse-selfperf/2": validate_selfperf2,
    "nvtraverse-service/1": validate_service,
    "nvtraverse-recovery/1": validate_recovery,
    "nvtraverse-mutation/1": validate_mutation,
    "nvtraverse-mutation/2": validate_mutation2,
    "nvtraverse-optimizer/1": validate_optimizer,
    "nvtraverse-contenders/1": validate_contenders,
}


def main(paths):
    if not paths:
        sys.exit(__doc__.strip())
    failed = False
    for path in paths:
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"FAIL {path}: {e}")
            failed = True
            continue
        schema = doc.get("schema")
        validator = VALIDATORS.get(schema)
        if validator is None:
            print(f"FAIL {path}: unknown schema {schema!r}")
            failed = True
            continue
        try:
            summary = validator(doc)
        except Invalid as e:
            print(f"FAIL {path} [{schema}]: {e}")
            failed = True
        except (KeyError, TypeError, ValueError) as e:
            print(f"FAIL {path} [{schema}]: malformed document ({e!r})")
            failed = True
        else:
            print(f"ok   {path} [{schema}]: {summary}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main(sys.argv[1:])
