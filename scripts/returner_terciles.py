"""The returner's return rate per crossing-speed tercile, and the exchanges
another source tree returns that this one does not.

    PYTHONPATH=A/src python3 scripts/returner_terciles.py --save a.json
    PYTHONPATH=B/src python3 scripts/returner_terciles.py --against a.json

Seeds 3-7 (``--episodes`` exchanges each, calibrated as ``run_experiment``
does) run at lead times 0.1, 0.2 and 0.4 s: the baseline and the oracle
once, the anticipatory strategy at alpha 0.05, 0.1, 0.15 and 0.3. Each row
is pooled over the seeds. It gives the return rate overall and in each
tercile of the exchanges' crossing speed, whose edges come from the
exchanges, so every row shares them, then ``n_fallback``. ``--save`` writes
each row's returned exchanges. ``--against`` reads such a file and adds a
``lost`` column: the exchanges that file's row returns and this one does
not. Each lost exchange is then listed on its own line.
"""

from __future__ import annotations

import argparse
import json

import numpy as np

from ttrally.control import SimParams, prepare_anticipation, run_strategy
from ttrally.synth import generate_exchanges

SEEDS = range(3, 8)
LEAD_TIMES = (0.1, 0.2, 0.4)
ALPHAS = (0.05, 0.1, 0.15, 0.3)
CONFIGS = [("baseline", None), ("oracle", None)] + [("anticipatory", a) for a in ALPHAS]


def run(n_episodes: int) -> tuple[dict[str, float], dict[str, dict[str, tuple[bool, bool]]]]:
    """Each exchange's crossing speed, and per row ("lead alpha strategy")
    each exchange's (returned, fallback); exchanges are keyed "seed:id"."""
    speeds, rows = {}, {}
    for seed in SEEDS:
        exchanges = generate_exchanges(seed, n_episodes)
        keys = [f"{seed}:{i}" for i in exchanges.ids.tolist()]
        speeds.update(zip(keys, np.linalg.norm(exchanges.crossing_vel, axis=1).tolist()))
        for lead_time in LEAD_TIMES:
            for strategy, alpha in CONFIGS:
                params = SimParams(lead_time=lead_time, alpha=alpha or SimParams.alpha)
                calib = prepare_anticipation(seed, params) if alpha else ()
                _, results = run_strategy(exchanges, strategy, params, *calib)
                row = rows.setdefault(f"{lead_time} {alpha or '-'} {strategy}", {})
                row.update((k, (r.returned, r.fallback)) for k, r in zip(keys, results))
    return speeds, rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--episodes", type=int, default=300, help="exchanges per seed")
    parser.add_argument("--save", help="write each row's returned exchanges here (JSON)")
    parser.add_argument("--against", help="a --save file of another tree")
    args = parser.parse_args()

    speeds, rows = run(args.episodes)
    returned = {name: sorted(k for k, (r, _) in row.items() if r) for name, row in rows.items()}
    if args.save:
        with open(args.save, "w") as f:
            json.dump(returned, f, indent=0)
    other = None
    if args.against:
        with open(args.against) as f:
            other = json.load(f)

    edges = np.quantile(list(speeds.values()), [1 / 3, 2 / 3])
    tercile = {k: int(np.searchsorted(edges, v, side="right")) for k, v in speeds.items()}
    print(f"seeds {SEEDS.start}-{SEEDS.stop - 1}, {args.episodes} exchanges each; "
          f"crossing-speed tercile edges {edges[0]:.3f} and {edges[1]:.3f} m/s")
    print("| lead | alpha | strategy | rate | slow | mid | fast | n_fallback |"
          + (" lost |" if other is not None else ""))
    print("|---" * (8 + (other is not None)) + "|")
    lost_lines = []
    for name, row in rows.items():
        rates = [np.mean([r for k, (r, _) in row.items() if tercile[k] == t]) for t in range(3)]
        cells = name.split() + [f"{np.mean([r for r, _ in row.values()]):.3f}"]
        cells += [f"{rate:.3f}" for rate in rates] + [str(sum(f for _, f in row.values()))]
        if other is not None:
            lost = sorted(set(other[name]) - set(returned[name]))
            cells.append(str(len(lost)))
            lost_lines += [f"lost: {name} exchange {k} (speed {speeds[k]:.3f} m/s)" for k in lost]
        print("| " + " | ".join(cells) + " |")
    print("\n".join(lost_lines))


if __name__ == "__main__":
    main()
