"""Output checks for benchmark invocations.

Outputs are parsed into fields and compared with reference outputs
stored from a known-good commit:

- integers, strings and booleans must match exactly;
- reals must agree within 1e-9 relative or 1e-6 absolute, since CSV
  output carries 6 decimals;
- `char-sums` `argmax_s`/`argmax_t` are not compared: every nontrivial
  character with t != 0 ties at sqrt(p), so float noise picks them.

The `discrepancy` record CSV has tens of thousands of rows, so its
reference keeps only a digest of the integer columns; the real columns
are recomputed from the integers and compared with tolerance.  An
invocation without a stored reference must still report every `pass`
and `verified` field true.
"""

from __future__ import annotations

import hashlib
import json
import math
import re

EXCLUDED_KEYS = frozenset({"argmax_s", "argmax_t"})
JSON_SUBCOMMANDS = frozenset({"sidon", "char-sums", "polya", "discrepancy", "sign-demo"})
RECORD_EXACT_COLUMNS = ("h", "N", "k", "M", "hits", "large_box")
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?")


def _field(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_csv(text: str) -> dict:
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty CSV output")
    return {
        "columns": lines[0].split(","),
        "rows": [[_field(v) for v in line.split(",")] for line in lines[1:]],
    }


def parse_text(text: str) -> dict:
    """The text (SVG markup here) with numbers cut out, plus the numbers
    in order."""
    return {
        "skeleton": _NUMBER.sub("#", text),
        "numbers": [_field(v) for v in _NUMBER.findall(text)],
    }


def summarize_records(text: str, p: int) -> dict:
    """Digest of the exact columns of a `discrepancy` record CSV, after
    checking its real columns against values recomputed from them."""
    table = parse_csv(text)
    columns = table["columns"]
    index = {name: i for i, name in enumerate(columns)}
    scale = math.sqrt(p) * math.log(p) ** 2
    digest = hashlib.sha256()
    for row in table["rows"]:
        values = {name: row[i] for name, i in index.items()}
        expected = values["N"] * values["M"] / p
        deviation = abs(values["hits"] - expected)
        for name, want in (("expected", expected), ("deviation", deviation),
                           ("ratio", deviation / scale)):
            if not _close(values[name], want):
                raise ValueError(f"record column {name}={values[name]} but recomputed {want}")
        digest.update(",".join(str(values[c]) for c in RECORD_EXACT_COLUMNS).encode() + b"\n")
    return {"columns": columns, "num_rows": len(table["rows"]), "exact_sha256": digest.hexdigest()}


def _close(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or not isinstance(a, (int, float)):
        return False
    diff = abs(a - b)
    return diff <= 1e-6 or diff <= 1e-9 * abs(b)


def parse_outputs(argv: list[str], stdout: str, out_file: str | None) -> dict:
    """Parsed form of one invocation's outputs: `stdout`, and `out` for
    the file named by `--out`."""
    sub = argv[0]
    parsed: dict = {}
    if sub in JSON_SUBCOMMANDS:
        parsed["stdout"] = _drop_excluded(json.loads(stdout))
    elif stdout:
        parsed["stdout"] = parse_csv(stdout)
    if out_file is not None:
        if sub == "discrepancy":
            parsed["out"] = summarize_records(out_file, int(argv[argv.index("--prime") + 1]))
        else:
            parsed["out"] = parse_text(out_file)
    return parsed


def _drop_excluded(obj):
    if isinstance(obj, dict):
        return {k: _drop_excluded(v) for k, v in obj.items() if k not in EXCLUDED_KEYS}
    if isinstance(obj, list):
        return [_drop_excluded(v) for v in obj]
    return obj


def mismatch(got, want, path: str = "") -> str | None:
    """First field where `got` differs from `want`, or None."""
    if isinstance(want, float):
        return None if _close(got, want) else f"{path}: {got!r} != {want!r}"
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}"
        for key in want:
            found = mismatch(got[key], want[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: length {len(got) if isinstance(got, list) else got!r} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            found = mismatch(g, w, f"{path}[{i}]")
            if found:
                return found
        return None
    if type(got) is not type(want) or got != want:
        return f"{path}: {got!r} != {want!r}"
    return None


def failed_verdicts(obj, path: str = "") -> list[str]:
    """Paths of `pass`/`verified` fields that are not true."""
    found = []
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key in ("pass", "verified") and value is not True:
                found.append(f"{path}.{key}")
            found.extend(failed_verdicts(value, f"{path}.{key}"))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            found.extend(failed_verdicts(value, f"{path}[{i}]"))
    return found


def check_outputs(parsed: dict, reference: dict | None) -> str | None:
    """Why the parsed outputs are wrong, or None when they pass."""
    if reference is not None:
        return mismatch(parsed, reference)
    bad = failed_verdicts(parsed)
    return f"verdict not true at {', '.join(bad)}" if bad else None
