"""Compare two TSD1 dataset files label by label and feature by feature.

Prints the sample counts, whether the files are byte-identical, one line per
label field of `dataset.Sample` but the scenario id, in field order (a
verdict's flips, a float label's largest absolute change with the number of
samples it changed in, and the number of samples whose flags differ), the
number of samples whose adjacency differs, the largest feature change with
the number of differing feature values, and the scenario ids with any
changed label (the first 20 and a count of the rest). Samples are matched by
scenario id.

Run from the repository root:

    python scripts/dataset_diff.py OLD.tsd NEW.tsd

The exit status is 0 when the files are byte-identical and 1 otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tsakit.dataset import _LABELS, load_dataset  # noqa: E402

LABELS = [(name, kind) for name, kind in _LABELS if name != "scenario_id"]
SHOWN_IDS = 20


def diff_report(old_path: str | Path, new_path: str | Path) -> list[str]:
    """The report lines for two dataset files."""
    old, _ = load_dataset(old_path)
    new, _ = load_dataset(new_path)
    same_bytes = Path(old_path).read_bytes() == Path(new_path).read_bytes()
    lines = [
        f"samples: {len(old)} old, {len(new)} new",
        f"bytes: {'identical' if same_bytes else 'differ'}",
    ]
    old_by_id = {s.scenario_id: s for s in old}
    new_by_id = {s.scenario_id: s for s in new}
    ids = sorted(old_by_id.keys() & new_by_id.keys())
    unmatched = len(old_by_id.keys() ^ new_by_id.keys())
    if unmatched:
        lines.append(f"scenario ids in only one file: {unmatched}")
    pairs = [(old_by_id[i], new_by_id[i]) for i in ids]
    for name, kind in LABELS:
        if kind is float:
            deltas = [abs(getattr(a, name) - getattr(b, name)) for a, b in pairs]
            changed = sum(d != 0 for d in deltas)
            lines.append(
                f"{name} max |d|: {max(deltas, default=0.0):.6g}, samples differing: {changed}"
            )
        else:
            changed = sum(getattr(a, name) != getattr(b, name) for a, b in pairs)
            lines.append(f"{name} {'flips' if kind is bool else 'differ'}: {changed}")
    lines.append(
        f"adjacency differs: {sum(not np.array_equal(a.adjacency, b.adjacency) for a, b in pairs)}"
    )
    same_shape = [(a, b) for a, b in pairs if a.features.shape == b.features.shape]
    if same_shape:
        d = np.concatenate(
            [np.abs(a.features.astype(float) - b.features.astype(float)).ravel()
             for a, b in same_shape]
        )
        lines.append(
            f"features max |d|: {d.max():.6g}, differing values: {int((d != 0).sum())} of {d.size}"
        )
    if len(same_shape) < len(pairs):
        lines.append(f"feature shapes differ: {len(pairs) - len(same_shape)} samples")
    changed = [a.scenario_id for a, b in pairs
               if any(getattr(a, name) != getattr(b, name) for name, _ in LABELS)]
    line = f"scenarios with a changed label: {len(changed)}"
    if changed:
        shown = ", ".join(map(str, changed[:SHOWN_IDS]))
        if len(changed) > SHOWN_IDS:
            shown += f" and {len(changed) - SHOWN_IDS} more"
        line += f" ({shown})"
    lines.append(line)
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python scripts/dataset_diff.py OLD.tsd NEW.tsd", file=sys.stderr)
        return 2
    lines = diff_report(argv[0], argv[1])
    print("\n".join(lines))
    return 0 if lines[1] == "bytes: identical" else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
