"""A small conjecture-hunting campaign with a JSONL report.

Sweeps extended Turan expressions of the Bell and (reflected) Laguerre
families over a (k, n) grid, records every exact stability verdict, and
shows that the report is byte-identical regardless of worker count.
Run as: python3 demos/03_campaign_sweep.py
"""

import tempfile
from pathlib import Path

from turanstab.harness import CampaignConfig, emit_reports, run_campaign
from turanstab.sequences import spec


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="turan-campaign-") as tmp:
        out_dir = Path(tmp)
        for family, reflect in (("bell", False), ("laguerre", True)):
            cfg = CampaignConfig(family=spec(family), k_max=10, n_max=3, reflect=reflect)
            records = run_campaign(cfg)
            path = out_dir / f"{family}.jsonl"
            emit_reports(records, path)
            flagged = [r for r in records if r.flagged]
            tag = " (reflected)" if reflect else ""
            print(f"{family}{tag}: {len(records)} cells, {len(flagged)} flagged")
            print(f"  report: {path.name}")
            worst = max(records, key=lambda r: r.degree)
            print(f"  largest cell: k={worst.k}, n={worst.n}, degree {worst.degree}")

        # determinism: same grid, two workers, byte-identical report
        cfg = CampaignConfig(family=spec("bell"), k_max=10, n_max=3, jobs=2)
        records = run_campaign(cfg)
        path = out_dir / "bell-2workers.jsonl"
        emit_reports(records, path)
        same = path.read_bytes() == (out_dir / "bell.jsonl").read_bytes()
        print(f"\nreport with jobs=2 byte-identical to jobs=1: {same}")
        print("A flagged cell would be a counterexample candidate to a")
        print("published conjecture — none appear on these grids.")


if __name__ == "__main__":
    main()
