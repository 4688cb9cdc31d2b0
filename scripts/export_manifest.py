#!/usr/bin/env python3
"""Write the canonical feature manifest as a tab-separated table.

The checked-in copy at docs/feature_manifest.tsv is the reference the test
suite compares against; regenerate it with this script after any deliberate
manifest change.
"""
import argparse
import sys
from pathlib import Path

from cardiosleep import registry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", choices=registry.PROFILES,
                        default="single")
    parser.add_argument("--out", default=str(Path(__file__).resolve().parents[1]
                                             / "docs" / "feature_manifest.tsv"))
    args = parser.parse_args(argv)

    manifest = registry.build_manifest(args.profile)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w") as f:
        f.write("name\tsource\twindow_epochs\tunits\n")
        for e in manifest.entries:
            f.write(f"{e.name}\t{e.source}\t{e.window_n}\t{e.units}\n")
    print(f"wrote {len(manifest)} entries ({args.profile} profile, "
          f"hash {registry.manifest_hash(manifest)[:12]}) to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
