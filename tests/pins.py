"""The shared harness of the pin scripts, ``test_report_digests.py`` and
``test_calculus_pins.py``: each pins a table of outputs, one entry of
digests per key, in a JSON file under ``tests/data``.

``loader`` reads that file once for the tests.  ``main`` is each script's
command line: it computes the table, prints ``N of M <nouns> changed`` and
the first changed keys, each with its changed fields, and then writes the
file, or, with ``--check``, writes nothing and exits 1 if any entry
changed.

Standard library only, so that the scripts run without pytest.
"""

import argparse
import functools
import json
import os
import sys


def _read(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def loader(path: str):
    """A function that returns the pinned table, read on its first call."""
    return functools.cache(functools.partial(_read, path))


def main(path: str, table, noun: str, description: str) -> None:
    """Regenerate the pinned file ``path`` from ``table()``, a dict of
    dicts, or with ``--check`` count the ``noun``s that changed."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--check", action="store_true",
                        help=f"write nothing; exit 1 if any {noun} changed")
    args = parser.parse_args()
    new = table()
    try:
        old = _read(path)
    except FileNotFoundError:
        old = {}
    changed = [key for key in new if old.get(key) != new[key]]
    print(f"{len(changed)} of {len(new)} {noun}s changed"
          + "".join(f"\n  {key}: " + " ".join(
              sorted(field for field in new[key]
                     if old.get(key, {}).get(field) != new[key][field]))
              for key in changed[:5])
          + ("\n  ..." if len(changed) > 5 else ""), file=sys.stderr)
    if args.check:
        sys.exit(1 if changed else 0)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(new, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(new)} {noun}s to {path}", file=sys.stderr)
