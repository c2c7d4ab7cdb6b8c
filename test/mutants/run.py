#!/usr/bin/env python3
"""Run the mutant catalogue: show that the checks guarding a layer can fail.

Each test/mutants/*.patch plants one known bug.  Its header (the lines
before the diff) names the bug class, the change that first planted it,
and the alcotest cases that must fail with it in place:

    Mutant: NAME
    Bug class: ...
    First planted by: ...
    Must fail: GROUP / CASE NAME

The runner exports the working tree (tracked and untracked, ignored
files left out) into one temporary directory, builds test/test_main.exe
there and first runs every named case on the unmutated export: the
empty patch, which must survive, or no kill below means anything.  Then,
for each patch: apply it, rebuild, run its named cases one by one,
revert.  A mutant is killed when every case it names fails.

Exit status 0 when the empty patch survives and every mutant is killed;
1 when a mutant survives (a patch with no hunks always does), a patch
no longer applies or no longer builds, or a named case does not exist.
Mutants build in the release profile, so one that leaves a variable
unused still builds.  Run from anywhere, with no arguments:

    python3 test/mutants/run.py
"""

import glob
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

# What test/dune's test stanza depends on, so the cases run in
# _build/default/test as under `dune runtest`.
EXES = ["test/test_main.exe", "bin/ldx_run.exe", "bin/ldx_worker.exe",
        "bin/ldx_campaignd.exe"]
DATA = ["test/frontend_golden.txt", "test/store_golden.txt",
        "test/vm_corpus.txt", "test/vm_golden.txt"]
DATA_TREES = ["programs", "test/journals"]

CASE_TIMEOUT_S = 600


def parse_patch(path):
    name = os.path.basename(path)[: -len(".patch")]
    cases, hunks, in_diff = [], False, False
    with open(path) as f:
        for line in f:
            if line.startswith(("--- ", "diff ")):
                in_diff = True
            if in_diff:
                hunks = hunks or line.startswith("@@")
            elif line.startswith("Must fail:"):
                group, _, case = line[len("Must fail:"):].partition(" / ")
                cases.append((group.strip(), case.strip()))
    return {"name": name, "path": path, "cases": cases, "hunks": hunks}


def run(cmd, cwd, timeout=None):
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          timeout=timeout)


def export_tree(dest):
    out = subprocess.run(
        ["git", "ls-files", "-z", "-c", "-o", "--exclude-standard"],
        cwd=ROOT, stdout=subprocess.PIPE, check=True).stdout
    for rel in sorted(set(out.decode().split("\0")) - {""}):
        src = os.path.join(ROOT, rel)
        if os.path.isfile(src):
            os.makedirs(os.path.join(dest, os.path.dirname(rel)),
                        exist_ok=True)
            shutil.copy2(src, os.path.join(dest, rel))
    # a repository of its own, so `git apply` resolves paths from here
    run(["git", "init", "-q"], dest)


def build(tree):
    data = list(DATA)
    for d in DATA_TREES:
        for p in glob.glob(os.path.join(tree, d, "**"), recursive=True):
            if os.path.isfile(p):
                data.append(os.path.relpath(p, tree))
    r = run(["dune", "build", "--root", ".", "--profile", "release"]
            + EXES + data, tree)
    return r.returncode == 0, r.stdout


def list_cases(test_dir):
    r = run(["./test_main.exe", "list"], test_dir)
    cases = {}
    for line in r.stdout.splitlines():
        m = re.match(r"^(\S+)\s+(\d+)\s+(.*)\.$", line)
        if m:
            cases[(m.group(1), m.group(3))] = m.group(2)
    return cases


def case_fails(test_dir, index, group, case):
    """True when the case fails (or hangs past the timeout)."""
    try:
        r = run(["./test_main.exe", "test", "^" + re.escape(group) + "$",
                 index[(group, case)]], test_dir, timeout=CASE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return True
    return r.returncode != 0


def check(tree, cases):
    """Build the tree as it stands and run [cases]: (error, failing)."""
    ok, log = build(tree)
    if not ok:
        return "does not build:\n" + log[-2000:], []
    test_dir = os.path.join(tree, "_build", "default", "test")
    index = list_cases(test_dir)
    unknown = [c for c in cases if c not in index]
    if unknown:
        return "names unknown cases: " + "; ".join(
            f"{g} / {c}" for g, c in unknown), []
    return None, [c for c in cases if case_fails(test_dir, index, *c)]


def main():
    if sys.argv[1:]:
        print("usage: python3 test/mutants/run.py (no arguments)")
        return 2
    patches = [parse_patch(p)
               for p in sorted(glob.glob(os.path.join(HERE, "*.patch")))]
    if not patches:
        print("no mutant in", HERE)
        return 1

    tree = tempfile.mkdtemp(prefix="ldx-mutants-")
    bad = 0
    try:
        export_tree(tree)
        control = sorted({c for p in patches for c in p["cases"]})
        err, failing = check(tree, control)
        if err or failing:
            print("empty patch: KILLED, the unmutated tree "
                  + (err or "fails " + "; ".join(
                      f"{g} / {c}" for g, c in failing)))
            return 1
        print(f"empty patch (control): survived, the {len(control)} "
              "named cases pass")
        for p in patches:
            name = p["name"]
            if not p["hunks"]:
                print(f"{name}: SURVIVED, an empty patch plants nothing")
                bad += 1
                continue
            if not p["cases"]:
                print(f"{name}: BROKEN, names no case that must fail")
                bad += 1
                continue
            r = run(["git", "apply", p["path"]], tree)
            if r.returncode != 0:
                print(f"{name}: BROKEN, no longer applies\n{r.stdout}")
                bad += 1
                continue
            try:
                err, failing = check(tree, p["cases"])
            finally:
                r = run(["git", "apply", "-R", p["path"]], tree)
            if r.returncode != 0:
                print(f"{name}: BROKEN, does not revert; stopping\n{r.stdout}")
                return 1
            survived = [c for c in p["cases"] if c not in failing]
            if err:
                print(f"{name}: BROKEN, {err}")
                bad += 1
            elif survived:
                print(f"{name}: SURVIVED, passes "
                      + "; ".join(f"{g} / {c}" for g, c in survived))
                bad += 1
            else:
                print(f"{name}: killed ({len(failing)} of "
                      f"{len(p['cases'])} cases fail)")
        print(f"{len(patches)} mutants, {len(patches) - bad} killed, "
              f"{bad} survived or broken")
    finally:
        shutil.rmtree(tree, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
