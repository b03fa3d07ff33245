#!/usr/bin/env python3
"""Validate nvtraverse mutation reports.

Usage: tools/validate_bench.py FILE [FILE ...]

Each FILE is an `nvtsim mutate` report (schema `nvtraverse-mutation/2`,
e.g. MUTATION_report.json). The report is the optimizer's plan input,
not a measurement, so it keeps this independent check: the gate is
recomputed from the per-site verdicts, and the machine-readable
candidate_redundant array must be exactly the unkilled verdicts. Bench
artifacts (`nvtraverse-bench/1`) are not validated here: each bench's
own gate exits non-zero, and `bench/main.exe diff` compares their
simulated metrics against bench/baseline.json. Exit status is non-zero
on the first violated invariant.
"""

import json
import sys


class Invalid(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise Invalid(msg)


# -------------------------------------------------------------- mutation

ATTACK_KINDS = {"crash", "stall", "evict", "window", "svc-crash"}

# Policies whose minimality claims the repo publishes head-to-head: an
# unexpected-unkilled site under any of these fails the gate (mirrors
# Mutlab.gated_policies). Other policies' unkilled sites are findings.
GATED_POLICIES = {"nvt", "soft", "det"}


def validate_gate(rep):
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


def validate_mutation(rep):
    base = validate_gate(rep)
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


# ------------------------------------------------------------------ main

VALIDATORS = {
    "nvtraverse-mutation/2": validate_mutation,
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
