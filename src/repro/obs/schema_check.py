"""Validate JSONL event logs against their records (:data:`EVENTS`).

    python -m repro.obs.schema_check events.jsonl [more.jsonl ...]
                                     [--require EVENT_TYPE ...]

Exit status 0 when every event in every file validates (and every
``--require``'d event type appears at least once per file), 1 otherwise
— the CI smoke steps run this against fresh ``repro profile``,
``why``, ``requests`` and ``querystore`` ``--jsonl`` dumps so the
exported events cannot drift silently.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from typing import List, Optional

from repro.obs.export import EVENTS, validate_jsonl


def _event_counts(text: str) -> Counter:
    """Occurrences of each ``event`` tag in valid-JSON lines."""
    counts: Counter = Counter()
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(event, dict):
            counts[event.get("event")] += 1
    return counts


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.schema_check",
        description="validate JSONL event logs")
    parser.add_argument("paths", nargs="+", metavar="events.jsonl")
    parser.add_argument(
        "--require", action="append", default=[], metavar="EVENT_TYPE",
        help="fail unless each file contains at least one event of this "
             "type (repeatable); must be a known event type")
    args = parser.parse_args(argv)

    for required in args.require:
        if required not in EVENTS:
            parser.error(f"--require {required!r} is not a known event "
                         f"type (known: {', '.join(sorted(EVENTS))})")

    failed = False
    for path in args.paths:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        errors = validate_jsonl(text)
        counts = _event_counts(text)
        for required in args.require:
            if not counts.get(required):
                errors.append(f"required event type {required!r} absent")
        count = sum(1 for line in text.splitlines() if line.strip())
        if errors:
            failed = True
            print(f"{path}: {len(errors)} schema error(s) "
                  f"in {count} event(s)")
            for error in errors:
                print(f"  {error}")
        else:
            by_type = " ".join(f"{kind}={n}" for kind, n
                               in sorted(counts.items()))
            print(f"{path}: {count} event(s) ok ({by_type})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
