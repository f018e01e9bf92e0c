#!/usr/bin/env python3
"""Rejection matrix for every numeric CLI option.

Regression test: the CLI used to feed option values straight into
std::stoul/std::stod/std::stoull, so `effitest_cli tune --chips=abc`
died with an uncaught std::invalid_argument (exit code dependent on the
runtime's terminate handler) instead of the documented usage exit 2.
Every numeric option must now reject malformed and out-of-range values
with exit 2 and an error message naming the offending option and value.

Usage: numeric_options_test.py <effitest_cli> <s27.bench> [bench binary...]

Each optional bench binary must reject malformed unsigned arguments the
same way: exit 2, naming the argument.
"""

import subprocess
import sys

CLI = sys.argv[1]
BENCH = sys.argv[2]
BENCH_BINARIES = sys.argv[3:]

# Values no unsigned-integer option may accept.
BAD_U64 = ["abc", "12x", "-3", "", "0x10", "99999999999999999999999999"]
# Values no floating-point option may accept ("nan"/"inf" parse as doubles
# but are meaningless as periods/quantiles/inflation factors). A hex float,
# leading whitespace and a leading '+' are not plain decimal numbers.
BAD_DOUBLE = ["abc", "12x", "", "nan", "inf", "1e999999", "0x1p8", " 256",
              "+256"]

# (command-line prefix, option name, bad values). Each prefix provisions
# the cheapest circuit that lets the command reach the numeric parse.
S27 = ["--bench=" + BENCH, "--buffers=2"]
CASES = [
    (["generate", "--circuit=s9234"], "seed", BAD_U64),
    (["info", "--bench=" + BENCH], "buffers", BAD_U64),
    (["info", "--circuit=s9234"], "seed", BAD_U64),
    (["ssta"] + S27, "chips", BAD_U64),
    (["run"] + S27, "chips", BAD_U64),
    (["run"] + S27, "seed", BAD_U64),
    (["run"] + S27, "threads", BAD_U64),
    (["run"] + S27, "td", BAD_DOUBLE),
    (["run"] + S27, "quantile", BAD_DOUBLE),
    (["campaign", "--circuits=s9234"], "chips", BAD_U64),
    (["campaign", "--circuits=s9234"], "seed", BAD_U64),
    (["campaign", "--circuits=s9234"], "threads", BAD_U64),
    (["campaign", "--circuits=s9234"], "stop-after", BAD_U64),
    (["campaign", "--circuits=s9234"], "inflation", BAD_DOUBLE),
    # --quantiles is a comma-separated list; an empty list is legal, but a
    # malformed element anywhere in the list is not.
    (
        ["campaign", "--circuits=s9234"],
        "quantiles",
        [v for v in BAD_DOUBLE if v],
    ),
    (["tune", "--simulate"] + S27, "chips", BAD_U64),
    (["tune", "--simulate"] + S27, "seed", BAD_U64),
    (["tune", "--simulate"] + S27, "threads", BAD_U64),
    (["tune", "--simulate"] + S27, "td", BAD_DOUBLE),
    (["tune", "--simulate"] + S27, "quantile", BAD_DOUBLE),
    (["tune", "--simulate"] + S27, "window", BAD_U64),
    # serve parses every numeric option before provisioning the circuit,
    # so a typo fails in milliseconds rather than after circuit build.
    (["serve"] + S27, "port", BAD_U64 + ["65536", "70000"]),
    (["serve"] + S27, "workers", BAD_U64),
    (["serve"] + S27, "max-pending", BAD_U64),
    (["serve"] + S27, "window", BAD_U64),
    (["serve"] + S27, "max-chips", BAD_U64),
    (["serve"] + S27, "max-sessions", BAD_U64),
    (["serve"] + S27, "io-timeout", BAD_DOUBLE),
    (["serve"] + S27, "status-port", BAD_U64 + ["65536", "70000"]),
]

failures = []


def check(argv, expect_rc, expect_stderr=None, binary=CLI):
    proc = subprocess.run(
        [binary] + argv, capture_output=True, text=True, timeout=120
    )
    problems = []
    if proc.returncode != expect_rc:
        problems.append(
            "exit %d, want %d" % (proc.returncode, expect_rc)
        )
    if expect_stderr is not None and expect_stderr not in proc.stderr:
        problems.append(
            "stderr %r does not mention %r" % (proc.stderr, expect_stderr)
        )
    if problems:
        failures.append("%s: %s" % (" ".join(argv), "; ".join(problems)))
    else:
        print("ok: %s" % " ".join(argv))


for prefix, option, bad_values in CASES:
    for value in bad_values:
        argv = prefix + ["--%s=%s" % (option, value)]
        # The error must name the option AND echo the rejected value so the
        # user can see which of several numeric options was mistyped.
        check(argv, 2, "--%s=%s" % (option, value))

# A malformed element buried in an otherwise-valid list is still named.
check(["campaign", "--circuits=s9234", "--quantiles=0.5,abc"], 2,
      "--quantiles=abc")

# --connect targets embed the port after the last ':'; a malformed port
# is rejected before any connection attempt.
check(["tune"] + S27 + ["--connect=127.0.0.1:abc"], 2, "abc")
check(["tune"] + S27 + ["--connect=127.0.0.1:70000"], 2, "70000")

# --log-format takes exactly text|json; every logging-capable command
# rejects anything else with exit 2 naming the option and value.
for prefix in (
    ["run"] + S27 + ["--chips=1"],
    ["campaign", "--circuits=s9234"],
    ["tune", "--simulate"] + S27,
    ["serve"] + S27,
):
    for value in ("bogus", "JSON", ""):
        check(prefix + ["--log-format=%s" % value], 2,
              "--log-format=%s" % value)

# ... and the logging options exist only on run/campaign/tune/serve; the
# other commands reject them like any unknown option.
check(["generate", "--circuit=s9234", "--log-format=json"], 2,
      "--log-format=json")
check(["info", "--bench=" + BENCH, "--log-file=/tmp/x.log"], 2,
      "--log-file=/tmp/x.log")
check(["circuits", "--log-format=json"], 2, "--log-format=json")

# status accepts --connect only, with the same host:port validation as
# tune --connect.
check(["status", "--connect=127.0.0.1:abc"], 2, "abc")
check(["status", "--connect=nocolon"], 2, "nocolon")
check(["status", "--circuit=s9234"], 2, "--circuit=s9234")

# An enabled log really is written: one valid JSON event per line, and
# --log-file without --log-format defaults to JSON.
import json
import tempfile

with tempfile.NamedTemporaryFile(suffix=".log", mode="r") as log_file:
    check(["run"] + S27 + ["--chips=20", "--log-file=" + log_file.name], 0)
    events = [json.loads(line) for line in log_file.read().splitlines()]
    if not events:
        failures.append("--log-file wrote no events")
    for event in events:
        if event.get("schema") != "effitest-log-v1":
            failures.append("bad log event: %r" % (event,))
    if [e["event"] for e in events if e["component"] == "run"] != [
        "run_begin",
        "run_complete",
    ]:
        failures.append(
            "run did not emit run_begin/run_complete: %r"
            % [e["event"] for e in events]
        )

# Sanity: well-formed numbers on the same paths still succeed, so the
# matrix above is rejecting values rather than whole commands.
check(["generate", "--circuit=s9234", "--seed=5"], 0)
check(["ssta"] + S27 + ["--chips=50"], 0)

# The bench binaries' shared --chips/--seed/--threads (and bench_serve's
# own --clients/--sessions/--workers/--fleet=) are unsigned too. Only bad
# values are tried: a good one would run the whole bench.
for binary in BENCH_BINARIES:
    options = ["chips", "seed", "threads"]
    if binary.endswith("bench_serve"):
        options += ["clients", "sessions", "workers", "fleet"]
    for option in options:
        for value in BAD_U64:
            arg = "--%s=%s" % (option, value)
            check([arg], 2, arg, binary=binary)

# An unknown argument (here a typo of --chips) is a usage error too, not a
# warning followed by the default run.
for binary in BENCH_BINARIES:
    check(["--chip=5"], 2, "--chip=5", binary=binary)

if failures:
    print("\n%d FAILED:" % len(failures))
    for f in failures:
        print("  " + f)
    sys.exit(1)
print("\nall %d rejection cases passed" % sum(len(v) for _, _, v in CASES))
