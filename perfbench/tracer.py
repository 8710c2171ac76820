"""Outside-in spans around the public functions of ``quasired``.

``Tracer.install`` wraps each function in ``TARGETS`` and rebinds every name,
in every loaded ``quasired`` module namespace, that is bound to the same
function object: ``from .x import f`` copies a binding, so ``bracket`` is
also ``stabilizer.bracket`` and ``seaweed_index`` is also a name in ``cli``,
``classify`` and ``stabilizer``. Nothing is wrapped until ``install`` runs, so
an untraced run executes the program's own functions.

Spans live in flat arrays (parent id, name id, start, end) so that a run with
a million calls stays small, and are written out once, by ``write``. A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter

TARGETS = {
    "rootsys": ("build_root_system", "bracket", "killing", "ad_columns"),
    "cascade": ("kostant_cascade",),
    "seaweed": ("seaweed_index", "biparabolic_basis", "build_u", "sample_cv"),
    "linalg": ("rank", "rref", "nullspace", "kernel_stabilizes"),
    "stabilizer": (
        "certify_quasi_reductive",
        "form_stabilizer",
        "is_abelian",
        "killing_radical_on",
        "is_semisimple_element",
    ),
    "classify": ("classify_parabolic",),
    "cli": ("run", "generate_tables", "cmd_tables", "cmd_verify"),
}


def _cells(rows) -> int:
    return len(rows) * len(rows[0]) if rows else 0


# per span, one small number taken from the arguments (matrix cells) or from
# the result (which check of a certificate trial failed)
_PRE = {"linalg.rank": _cells, "linalg.rref": _cells}
_POST = {
    "stabilizer.certify_quasi_reductive": lambda cert: int(cert is not None),
    "stabilizer.is_abelian": int,
    "stabilizer.killing_radical_on": lambda s: s.dim,
    "stabilizer.is_semisimple_element": int,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.parent = array("i")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.note: dict[int, int] = {}
        self.mark = 0
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        mods = [m for k, m in sys.modules.items() if k == "quasired" or k.startswith("quasired.")]
        for modname, funcs in TARGETS.items():
            home = sys.modules[f"quasired.{modname}"]
            for fname in funcs:
                fn = getattr(home, fname)
                wrapper = self._wrap(f"{modname}.{fname}", fn)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            self._undo.append((m, attr, fn))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._undo):
            setattr(m, attr, fn)
        self._undo.clear()

    def start_passes(self) -> None:
        """Spans recorded from here on belong to the timed passes."""
        self.mark = len(self.start)

    def _wrap(self, label: str, fn):
        nid = len(self.names)
        self.names.append(label)
        parent, name, start, end = self.parent, self.name, self.start, self.end
        stack, note = self._stack, self.note
        pre, post = _PRE.get(label), _POST.get(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            name.append(nid)
            end.append(0.0)
            if pre is not None:
                note[sid] = pre(args[0])
            stack.append(sid)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
            if post is not None:
                note[sid] = post(out)
            return out

        return wrapper

    def write(self, path) -> None:
        """One JSON header line, then the raw parent, name, start and end arrays."""
        header = {"names": self.names, "spans": len(self.start), "mark": self.mark,
                  "arrays": ["parent:i", "name:H", "start:d", "end:d"]}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for a in (self.parent, self.name, self.start, self.end):
                a.tofile(f)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, self and total time, matrix cells, roll-ups and
        the certificate-search counts of the timed passes."""
        names, parent, name, start, end, note = (
            self.names, self.parent, self.name, self.start, self.end, self.note)
        n = len(start)
        dur = [end[i] - start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        nid = {label: k for k, label in enumerate(names)}
        linalg_ids = {k for label, k in nid.items() if label.startswith("linalg.")}
        fs, ss, cert = (nid["stabilizer.form_stabilizer"],
                        nid["stabilizer.is_semisimple_element"],
                        nid["stabilizer.certify_quasi_reductive"])

        calls = [0] * len(names)
        self_s = [0.0] * len(names)
        total_s = [0.0] * len(names)
        cells = [0] * len(names)
        # nearest form_stabilizer / is_semisimple_element / certify ancestor-or-self,
        # and whether a linalg span is already open above a span
        anc = array("i", [-1]) * n
        in_cert = array("b", [0]) * n
        in_linalg = array("b", [0]) * n
        rollup = {fs: 0.0, ss: 0.0}
        form_total = 0.0
        counts = {"trials": 0, "certificates": 0, "fail.abelian": 0,
                  "fail.killing": 0, "fail.semisimple": 0, "abelian_checks": 0}
        for i in range(n):
            k, p = name[i], parent[i]
            calls[k] += 1
            self_s[k] += dur[i] - child[i]
            total_s[k] += dur[i]
            if k in linalg_ids:
                cells[k] += note.get(i, 0)
            anc[i] = i if k in (fs, ss) else (anc[p] if p >= 0 else -1)
            in_cert[i] = k == cert or (p >= 0 and in_cert[p])
            is_lin = k in linalg_ids
            in_linalg[i] = is_lin or (p >= 0 and in_linalg[p])
            if is_lin and not (p >= 0 and in_linalg[p]) and anc[i] >= 0:
                rollup[name[anc[i]]] += dur[i]
            if k == fs:
                form_total += dur[i]
            if i < self.mark or not in_cert[i]:
                continue
            if k == fs:
                counts["trials"] += 1
            elif k == cert:
                counts["certificates"] += note.get(i, 0)
            elif k == nid["stabilizer.is_abelian"]:
                counts["abelian_checks"] += 1
                counts["fail.abelian"] += 1 - note.get(i, 1)
            elif k == nid["stabilizer.killing_radical_on"]:
                counts["fail.killing"] += int(note.get(i, 0) > 0)
            elif k == ss:
                counts["fail.semisimple"] += 1 - note.get(i, 1)

        out: dict[str, float] = {}
        for k, label in enumerate(names):
            out[f"{label}.calls"] = calls[k]
            out[f"{label}.self_s"] = self_s[k]
            out[f"{label}.total_s"] = total_s[k]
            if k in linalg_ids:
                out[f"{label}.cells"] = cells[k]
        out["stabilizer.form_kernel_s"] = rollup[fs]
        out["stabilizer.form_matrix_s"] = form_total - rollup[fs]
        out["stabilizer.semisimple_rank_s"] = rollup[ss]
        trials = counts["trials"]
        out["stabilizer.trials"] = trials
        out["stabilizer.certificates"] = counts["certificates"]
        out["stabilizer.fail.dim"] = trials - counts["abelian_checks"]
        for key in ("fail.abelian", "fail.killing", "fail.semisimple"):
            out[f"stabilizer.{key}"] = counts[key]
        out["stabilizer.cert_hit_rate"] = counts["certificates"] / trials if trials else 0.0
        return out
