#!/usr/bin/env python3
"""Span reader for the perfbench traced run (stdlib only).

Reads the spans a traced run wrote (spans.json: site table; spans.bin:
one 32-byte record per span) and prints, per layer and per call site, the
number of calls, the inclusive time, the self time and the waiting time,
each as the mean over locations in seconds.

  * Self time: a span's duration minus the time its child spans cover.
  * Waiting time:
      - collective calls with no child spans: how long this location
        waited for the last location to arrive (the k-th call of a site on
        every location is the same collective call); a collective that
        wraps others leaves the waiting to them;
      - sync calls: the self time, since the caller is blocked until the
        reply arrives;
      - async calls and phase spans: none.

Usage: python3 perfbench/spans.py <dir holding spans.json and spans.bin>
"""

import json
import os
import struct
import sys
from collections import defaultdict

RECORD = struct.Struct("<IIiIQQ")
KIND_COLLECTIVE, KIND_SYNC = 1, 2


def load(directory):
    """Returns (sites, locations, per-location lists of
    (site, parent, t0, t1))."""
    with open(os.path.join(directory, "spans.json")) as f:
        meta = json.load(f)
    with open(os.path.join(directory, "spans.bin"), "rb") as f:
        data = f.read()
    per_loc = defaultdict(list)
    for loc, site, parent, _pad, t0, t1 in RECORD.iter_unpack(data):
        per_loc[loc].append((site, parent, t0, t1))
    return meta["sites"], meta["locations"], per_loc


def summarize(directory):
    """Per-site totals: {(layer, name): {calls, total_s, self_s, wait_s}},
    each a mean over locations."""
    sites, nloc, per_loc = load(directory)
    calls = defaultdict(int)
    total = defaultdict(float)
    self_t = defaultdict(float)
    wait = defaultdict(float)
    starts = defaultdict(lambda: defaultdict(list))  # site -> loc -> [t0]
    wraps = set()  # sites seen with child spans

    for loc, recs in per_loc.items():
        child = [0] * len(recs)
        for site, parent, t0, t1 in recs:
            if parent >= 0:
                child[parent] += t1 - t0
                wraps.add(recs[parent][0])
        for i, (site, parent, t0, t1) in enumerate(recs):
            own = (t1 - t0 - child[i]) * 1e-9
            calls[site] += 1
            total[site] += (t1 - t0) * 1e-9
            self_t[site] += own
            if sites[site][2] == KIND_SYNC:
                wait[site] += own
            elif sites[site][2] == KIND_COLLECTIVE:
                starts[site][loc].append(t0)

    # Arrival skew of collective calls matched by occurrence index.
    for site, by_loc in starts.items():
        lists = list(by_loc.values())
        if (site in wraps or len(lists) != nloc
                or len({len(x) for x in lists}) != 1):
            continue
        for k in range(len(lists[0])):
            last = max(x[k] for x in lists)
            for x in lists:
                wait[site] += (last - x[k]) * 1e-9

    # Several sites may share a (layer, call) name; their rows add up.
    out = defaultdict(lambda: dict.fromkeys(
        ("calls", "total_s", "self_s", "wait_s"), 0.0))
    for site, (layer, name, _kind) in enumerate(sites):
        if calls[site] == 0:
            continue
        row = out[(layer, name)]
        row["calls"] += calls[site] / nloc
        row["total_s"] += total[site] / nloc
        row["self_s"] += self_t[site] / nloc
        row["wait_s"] += min(wait[site], self_t[site]) / nloc
    return dict(out)


def layer_totals(summary):
    """Folds per-site rows into per-layer rows."""
    layers = defaultdict(lambda: {"calls": 0.0, "total_s": 0.0,
                                  "self_s": 0.0, "wait_s": 0.0})
    for (layer, _name), row in summary.items():
        for k, v in row.items():
            layers[layer][k] += v
    return dict(layers)


def render(summary, out=sys.stdout, prefix=""):
    """Prints the per-layer table, then the per-site rows."""
    head = f"{'layer / call':<36}{'calls':>10}{'total_s':>11}" \
           f"{'self_s':>11}{'wait_s':>11}"
    print(prefix + head, file=out)
    for layer, row in sorted(layer_totals(summary).items()):
        print(prefix + f"{layer:<36}{row['calls']:>10.0f}"
              f"{row['total_s']:>11.4f}{row['self_s']:>11.4f}"
              f"{row['wait_s']:>11.4f}", file=out)
        for (lay, name), r in sorted(summary.items()):
            if lay == layer:
                print(prefix + f"  {name:<34}{r['calls']:>10.0f}"
                      f"{r['total_s']:>11.4f}{r['self_s']:>11.4f}"
                      f"{r['wait_s']:>11.4f}", file=out)


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    render(summarize(argv[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
