"""The correctness gate: every pass's verdicts against the expected ones.

Expected verdict of a record: never errored; failed exactly on the
evaluated ``transform`` and ``theorem`` records at ``j = -5`` (the
documented defect of the tabulated weight ``B_{-5}``); skipped only with a
reason naming a ``VerificationError`` subclass; passed otherwise.

``selftest`` prints no records, so the canonical workloads are checked
against the expected per-suite summary lines instead.  ``run`` reports are
checked record by record once, and every later report of the same run
(repetitions, other ``--jobs``) must be byte-identical to the first.
"""

import json
import re

from hyperverify import errors

DEFECT_CHECKS = ("transform", "theorem")
DEFECT_J = -5

# suite: (records, failed); every record not failed passes.
CANONICAL = {
    "kummer": (20, 0),
    "transform": (44, 4),
    "theorem-a": (528, 48),
    "theorem-d": (352, 32),
    "corollary": (336, 0),
    "pipeline": (264, 0),
}
_SUMMARY_LINE = re.compile(
    r"^(\S+)\s+records=(\d+)\s+passed=(\d+)\s+failed=(\d+)\s+"
    r"errored=(\d+)\s+skipped=(\d+)$"
)


def reason_names():
    """Names of the VerificationError classes a skip may give as reason."""
    names, todo = set(), [errors.VerificationError]
    while todo:
        cls = todo.pop()
        names.add(cls.__name__)
        todo.extend(cls.__subclasses__())
    return names


def status(rec: dict) -> str:
    """A report record's status, as the engine defines it."""
    error = rec["error"]
    if error is not None:
        return "errored" if error.startswith("Unexpected") else "skipped"
    return "passed" if rec["equal"] else "failed"


def record_is_bad(rec: dict, reasons) -> bool:
    got = status(rec)
    if got == "errored":
        return True
    if got == "skipped":
        return rec["error"].split(":", 1)[0] not in reasons
    defect = rec["check"] in DEFECT_CHECKS and rec["j"] == DEFECT_J
    return got != ("failed" if defect else "passed")


class Verdict:
    """Verdict counts of one pass: records checked, verified, bad."""

    def __init__(self, records, verified, bad, problems):
        self.records = records
        self.verified = verified  # passed plus failed
        self.bad = bad
        self.problems = problems


def check_report(body: bytes, code: int, reasons) -> Verdict:
    """Check a ``run`` report record by record, and its exit code."""
    report = json.loads(body)
    records = report["records"]
    bad = [r for r in records if record_is_bad(r, reasons)]
    problems = [f"unexpected verdict {status(r)} on {r['check']} j={r['j']} "
                f"a={r['a']} b={r['b']} d={r['d']} e={r['e']}: {r['error']}"
                for r in bad[:5]]
    counts = {s: 0 for s in ("passed", "failed", "errored", "skipped")}
    for r in records:
        counts[status(r)] += 1
    if report["summary"] != counts:
        problems.append(f"summary {report['summary']} does not match records {counts}")
    want_code = 1 if counts["failed"] or counts["errored"] else 0
    if code != want_code:
        problems.append(f"exit code {code}, expected {want_code}")
    return Verdict(len(records), counts["passed"] + counts["failed"], len(bad),
                   problems)


def check_selftest(stdout: str, code: int) -> Verdict:
    """Check ``selftest`` output against the expected per-suite summaries."""
    lines = stdout.splitlines()
    problems, bad, verified = [], 0, 0
    seen = {}
    for line in lines[:-1]:
        m = _SUMMARY_LINE.match(line)
        if m is None:
            problems.append(f"unparsed selftest line {line!r}")
            continue
        n, passed, failed, errored, skipped = map(int, m.groups()[1:])
        seen[m.group(1)] = (n, passed, failed, errored, skipped)
    want_total = [0, 0, 0, 0, 0]
    for name, (n, want_failed) in CANONICAL.items():
        want = (n, n - want_failed, want_failed, 0, 0)
        want_total = [t + w for t, w in zip(want_total, want)]
        got = seen.get(name)
        if got is None:
            problems.append(f"suite {name} missing from selftest output")
            bad += n
            continue
        # Summaries hide which record flipped; a flip shows in failed,
        # errored or skipped.
        bad += abs(got[2] - want_failed) + got[3] + got[4]
        verified += got[1] + got[2]
        if got != want:
            problems.append(f"suite {name}: got {got}, expected {want}")
    if seen.get("total") != tuple(want_total):
        problems.append(f"total: got {seen.get('total')}, expected {tuple(want_total)}")
    if lines[-1:] != ["selftest: FAIL"] or code != 1:
        problems.append(f"selftest ended {lines[-1:]} with exit code {code}, "
                        "expected 'selftest: FAIL' and 1 for the j=-5 defect")
    return Verdict(want_total[0], verified, bad, problems)
