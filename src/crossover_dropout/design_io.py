"""Design file format: JSON with one sequence string per subject.

    {"name": "...", "p": 4, "t": 4, "n": 16, "sequences": ["2433", ...]}

Sequence strings use compact digits for t <= 9 and comma-separated labels
otherwise.  Emission is canonical (sorted keys, sorted sequences, trailing
newline) so a load/emit round trip of an emitted file is byte-identical.
"""

from __future__ import annotations

import json

import numpy as np

from .design_search import ExactDesign
from .errors import ValidationError, check_integers
from .sequences import format_sequences, parse_sequence


def design_to_dict(design: ExactDesign) -> dict:
    dm = design.matrices()
    subjects = np.array(dm.sequences)[dm.subject_index]
    sequences = sorted(format_sequences(subjects, design.t).splitlines())  # text order, not labels
    out = {"p": design.p, "t": design.t, "n": design.n, "sequences": sequences}
    if design.name:
        out["name"] = design.name
    return out


def dumps_design(design: ExactDesign) -> str:
    return json.dumps(design_to_dict(design), sort_keys=True, indent=2) + "\n"


def save_design(design: ExactDesign, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_design(design))


def design_from_dict(payload: dict, source: str = "<design>") -> ExactDesign:
    if not isinstance(payload, dict) or not {"p", "t", "n", "sequences"} <= set(payload):
        raise ValidationError(f"{source} must contain keys p, t, n, sequences")
    check_integers(payload, ("p", "t", "n"), source)
    p, t, n = payload["p"], payload["t"], payload["n"]
    raw = payload["sequences"]
    if not isinstance(raw, list):
        raise ValidationError(f"{source}: sequences must be a list, got {raw!r}")
    if len(raw) != n:
        raise ValidationError(f"{source}: expected {n} sequence entries, got {len(raw)}")
    seqs = []
    for entry in raw:
        if not isinstance(entry, str):
            raise ValidationError(f"{source}: sequence entries must be strings, got {entry!r}")
        seq = parse_sequence(entry, t)
        if len(seq) != p:
            raise ValidationError(f"{source}: sequence {entry!r} does not have {p} periods")
        seqs.append(seq)
    return ExactDesign.from_sequences(seqs, t, name=payload.get("name"))


def load_design(path) -> ExactDesign:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, not UTF-8, or an over-long number
        raise ValidationError(f"cannot read design file {path}: {exc}") from exc
    return design_from_dict(payload, source=str(path))
