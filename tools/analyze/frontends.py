"""Frontend selection, clang execution, and the per-TU IR cache.

Two frontends produce the same IR (ir.py):

* "clang"  — runs `clang -Xclang -ast-dump=json -fsyntax-only` per TU
  with the flags from compile_commands.json and lowers the dump
  (clangjson.py). Preferred when clang is available; CI pins the
  major version so analyzer output cannot drift across runner images.
* "syntax" — the pure-Python parser (cxxparse.py), one IR per source
  file, no toolchain needed. This is what the ctest gates run.

Lowered IR is cached per TU under <build>/analyze-cache/, keyed on the
TU source hash + a digest of every project header + flags + frontend
version (raw AST dumps are hundreds of MB; the IR is a few KB, so we
cache after lowering, which is also what CI restores).
"""

import hashlib
import json
import os
import re
import subprocess
import tempfile

import compiledb
import cxxparse
from clangjson import lower_tu
from ir import SourceIR

# Bump when the lowering changes meaning; invalidates every cache.
LOWERING_VERSION = "1"

CLANG_CANDIDATES = ("clang++", "clang", "clang++-18", "clang-18",
                    "clang++-17", "clang++-16", "clang++-15",
                    "clang++-14")


class ClangNotFound(RuntimeError):
    pass


class ClangVersionMismatch(RuntimeError):
    pass


def resolve_clang(require_major=None, explicit=None):
    """(path, version_string). `require_major` enforces the CI pin
    with an actionable error; `explicit` (or $EXMA_ANALYZE_CLANG)
    overrides the search list."""
    explicit = explicit or os.environ.get("EXMA_ANALYZE_CLANG")
    candidates = (explicit,) if explicit else CLANG_CANDIDATES
    tried = []
    for cand in candidates:
        ver = _clang_version(cand)
        if ver is None:
            tried.append(cand)
            continue
        if require_major is not None and ver[0] != require_major:
            raise ClangVersionMismatch(
                "analyzer requires clang major version %d but %r is "
                "%d.%d — AST output drifts across majors, so the "
                "version is pinned; install clang-%d or adjust "
                "--require-clang-major / the CI pin deliberately"
                % (require_major, cand, ver[0], ver[1], require_major))
        return cand, "%d.%d" % (ver[0], ver[1])
    raise ClangNotFound(
        "no clang found (tried: %s); use --frontend syntax or set "
        "EXMA_ANALYZE_CLANG" % ", ".join(tried))


def _clang_version(cand):
    try:
        out = subprocess.run([cand, "--version"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    m = re.search(r"clang version (\d+)\.(\d+)", out.stdout)
    if not m:
        return None
    return (int(m.group(1)), int(m.group(2)))


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------

def _sha(*parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else p.encode())
        h.update(b"\x00")
    return h.hexdigest()


def headers_digest(paths):
    """One digest over every project header, sorted; a header edit
    invalidates all TU caches (TU dumps include headers)."""
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(p.encode())
        try:
            with open(p, "rb") as f:
                h.update(f.read())
        except OSError:
            pass
        h.update(b"\x00")
    return h.hexdigest()


class IRCache:
    def __init__(self, cache_dir):
        self.dir = cache_dir
        self.hits = 0
        self.misses = 0

    def get(self, key):
        if not self.dir:
            return None
        path = os.path.join(self.dir, key + ".json")
        try:
            with open(path, encoding="utf-8") as f:
                ir = SourceIR.loads(f.read())
            self.hits += 1
            return ir
        except (OSError, ValueError, KeyError):
            return None

    def put(self, key, ir):
        if not self.dir:
            return
        self.misses += 1
        os.makedirs(self.dir, exist_ok=True)
        # One temp file per writer: passes running at the same time may
        # lower the same TU, and each must publish a complete file.
        fd, tmp = tempfile.mkstemp(dir=self.dir, prefix=key + ".",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                f.write(ir.dumps())
            os.replace(tmp, os.path.join(self.dir, key + ".json"))
        except BaseException:
            os.unlink(tmp)
            raise


# ---------------------------------------------------------------------------
# Frontends
# ---------------------------------------------------------------------------

def syntax_ir(path, rel, text, cache=None):
    key = None
    if cache is not None:
        key = _sha("syntax", LOWERING_VERSION, rel, text)
        hit = cache.get(key)
        if hit is not None:
            return hit
    ir = cxxparse.parse_source(rel, text)
    if cache is not None:
        cache.put(key, ir)
    return ir


def clang_tu_ir(clang, version, entry, root, hdr_digest, cache=None):
    """Run clang over one compile-db entry and lower the dump."""
    rel = os.path.relpath(entry.file, root)
    with open(entry.file, encoding="utf-8", errors="replace") as f:
        text = f.read()
    key = None
    if cache is not None:
        key = _sha("clang", version, LOWERING_VERSION, rel, text,
                   hdr_digest, " ".join(entry.frontend_flags()))
        hit = cache.get(key)
        if hit is not None:
            return hit
    cmd = [clang, "-x", "c++", "-fsyntax-only", "-Xclang",
           "-ast-dump=json", "-Wno-everything"]
    cmd += entry.frontend_flags()
    cmd.append(entry.file)
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          cwd=entry.directory)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(
            "clang AST dump failed for %s:\n%s"
            % (rel, proc.stderr.strip()[:2000]))
    ast = json.loads(proc.stdout)
    ir = lower_tu(rel, ast, root,
                  suppressions=cxxparse.scan_suppressions(text),
                  version=version)
    if cache is not None:
        cache.put(key, ir)
    return ir
