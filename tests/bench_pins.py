#!/usr/bin/env python3
"""Output pins of the eight paper benches and seven examples.

    python3 tests/bench_pins.py BINARY...           # check against PINS
    python3 tests/bench_pins.py --print BINARY...   # print a new table

Each BINARY is a path to one of the binaries named in CASES (ctest
passes them with $<TARGET_FILE:...>). Every case runs in a fresh
temporary directory. Its stdout, with the "N threads" count
normalised, and every file the run writes are hashed with SHA-256
and compared against PINS. A bench runs at --threads 1 and at
--threads 2 against the same pins, so the check also holds each
bench's output to be independent of its lane count. So do
resilience_study, the one tool that drives checkpoint/restart
(resilienceSweep and protocolSweep on the tapered fat tree), the
three platform campaigns in STUDIES: topology_study (topology x
bandwidth), collective_study (collective model x topology x
bandwidth) and degradation_study (scenario x bandwidth on the
tapered fat tree), and generator_study, the one tool that drives
scalingSweep over the link network (a stencil and a fan-in over
three rank counts on the tapered fat tree), each with its CSV. On
a mismatch the moved case's stdout is printed and each moved file
is named.

ERRORS holds user errors: each must end in exit status 1 with its
message on stderr exactly once and no other `fatal:` line, never in
std::terminate. A row may carry input files, written into its
temporary directory before the run. They run in check mode only;
--print leaves them out of the table.

PINS was recorded from a Release build of the code in which the
benches still replayed through sim::simulateBatch and the examples
through core::OverlapStudy, before both moved onto the campaign
drivers and sim::simulate. The resilience_study row was recorded
from the engine whose checkpoint image mirrored the imaged members
field by field. The STUDIES rows were recorded from the drivers that
ran one bandwidth sweep per topology, scenario or collective model,
lowering every program again for each. The generator_study rows
were recorded from the link network that re-derived every visited
flow's bottleneck on each admission and removal.
"""

import hashlib
import os
import re
import subprocess
import sys
import tempfile

BENCHES = [
    "bench_intermediate_speedup",
    "bench_scaling",
    "bench_mechanism_ablation",
    "bench_chunk_granularity",
    "bench_platform_sensitivity",
    "bench_pipeline_fig1",
    "bench_real_vs_ideal",
    "bench_bandwidth_relaxation",
]

# (case name, binary, arguments). The examples take no --threads.
CASES = [(f"{b} --threads {n}", b, ["--threads", str(n)])
         for b in BENCHES for n in (1, 2)] + [
    ("quickstart", "quickstart", []),
    ("timeline_gallery", "timeline_gallery", []),
    ("timeline_gallery --app sweep3d --bandwidth 64", "timeline_gallery",
     ["--app", "sweep3d", "--bandwidth", "64"]),
] + [(f"resilience_study --seeds 4 --threads {n}", "resilience_study",
      ["--seeds", "4", "--threads", str(n)]) for n in (1, 2)]

# The platform campaigns, each at --threads 1 and 2 like the benches.
STUDIES = [
    ("topology_study", ["--app", "nas-cg", "--csv", "t.csv"]),
    ("collective_study", ["--per-decade", "1", "--csv", "c.csv"]),
    ("degradation_study", ["--app", "nas-bt", "--per-decade", "1",
                           "--csv", "d.csv"]),
    ("generator_study", ["--kind", "stencil", "--ranks", "16,32,64",
                         "--csv", "g.csv"]),
    ("generator_study", ["--kind", "fan-in", "--ranks", "8,16,32",
                         "--csv", "f.csv"]),
]
CASES += [(f"{b} {' '.join(a)} --threads {n}", b, a + ["--threads", str(n)])
          for b, a in STUDIES for n in (1, 2)]

# (case name, binary, arguments, message on stderr, {input file:
# contents}).
ERRORS = [
    ("quickstart --bandwidth 1e-300", "quickstart",
     ["--bandwidth", "1e-300"],
     "fatal: a duration of inf ns overflows the 64-bit nanosecond "
     "clock", {}),
    ("quickstart --chunks 0", "quickstart", ["--chunks", "0"],
     "fatal: option --chunks must be in [1, 9223372036854775807], "
     "got 0", {}),
    ("bench_scaling --threads 4294967298", "bench_scaling",
     ["--threads", "4294967298"],
     "fatal: option --threads must be in [0, 2147483647], "
     "got 4294967298", {}),
    ("timeline_gallery --prefix no-such-dir/x", "timeline_gallery",
     ["--prefix", "no-such-dir/x"],
     "fatal: cannot open 'no-such-dir/x_original.prv' for writing", {}),
    ("generator_study --workload bad.workload", "generator_study",
     ["--workload", "bad.workload"],
     "fatal: bad.workload line 2: unknown workload kind 'bogus' "
     "(expected stencil, ml-training, fan-in or dht)",
     {"bad.workload": "# a typo in the kind\nkind = bogus\n"}),
    ("generator_study --ranks 4294967312", "generator_study",
     ["--kind", "stencil", "--ranks", "4294967312", "--threads", "1"],
     "fatal: --ranks: value '4294967312' out of range", {}),
    ("generator_study --ranks 16x", "generator_study",
     ["--kind", "stencil", "--ranks", "16x", "--threads", "1"],
     "fatal: --ranks: cannot parse '16x' as a number", {}),
    ("overlap_study --platform bad.platform", "overlap_study",
     ["--platform", "bad.platform"],
     "fatal: bad.platform line 2: cannot parse '12q' as a number",
     {"bad.platform": "name = typo\nbandwidth_mbps = 12q\n"}),
    ("overlap_study --lo 0", "overlap_study", ["--lo", "0"],
     "fatal: option --lo: value '0' must be positive", {}),
    ("degradation_study --lo nan", "degradation_study", ["--lo", "nan"],
     "fatal: option --lo: value 'nan' is not finite", {}),
    ("network_dimensioning --tolerance -1", "network_dimensioning",
     ["--tolerance", "-1"],
     "fatal: option --tolerance: negative value '-1'", {}),
    ("overlap_study nas-cg", "overlap_study", ["nas-cg"],
     "fatal: unexpected argument 'nas-cg' (options start with --)", {}),
    ("resilience_study --mtbf-lo 5 --mtbf-hi 2", "resilience_study",
     ["--mtbf-lo", "5", "--mtbf-hi", "2", "--seeds", "1"],
     "fatal: option --mtbf-lo (5) must be below --mtbf-hi (2)", {}),
    ("resilience_study --mtbf-hi 1e308", "resilience_study",
     ["--mtbf-hi", "1e308", "--seeds", "1", "--per-decade", "1"],
     "fatal: option --mtbf-hi: 1e+308 times the nominal run is not a "
     "finite time", {}),
    ("resilience_study --proto-mtbf 1e308", "resilience_study",
     ["--proto-mtbf", "1e308", "--seeds", "1", "--per-decade", "1",
      "--mtbf-lo", "100", "--mtbf-hi", "200"],
     "fatal: option --proto-mtbf: 1e+308 times the nominal run is not a "
     "finite time", {}),
    ("overlap_study --platform hop.platform", "overlap_study",
     ["--app", "nas-cg", "--per-decade", "1", "--lo", "1", "--hi", "100",
      "--platform", "hop.platform"],
     "fatal: hop.platform: topology: hop_latency_us = 1e+300 us does not "
     "fit the 64-bit nanosecond clock",
     {"hop.platform": "name = far\ntopology = fat-tree\n"
                      "hop_latency_us = 1e300\n"}),
    ("overlap_study --platform ckpt.platform", "overlap_study",
     ["--app", "nas-cg", "--per-decade", "1", "--lo", "1", "--hi", "100",
      "--platform", "ckpt.platform"],
     "fatal: ckpt.platform: platform: checkpoint_interval_us = 1e+300 us "
     "does not fit the 64-bit nanosecond clock",
     {"ckpt.platform": "name = rare\ncheckpoint_interval_us = 1e300\n"}),
]

THREADS = re.compile(rb"\b\d+ threads\b")

PINS = {
    'bench_intermediate_speedup': {
        "stdout": '626e28b72a1176c6bc840dcb52a9c2620b289046efbe8b1447c02e96dd59b57d',
        "files": {
            'bench_intermediate_speedup.csv':
                'c8c6cb033df6b0ec37c6c753918d6e8be96ea3ac0dff801eb3d0fc894b2e5530',
        },
    },
    'bench_scaling': {
        "stdout": 'aa2f9d00fda8a97fce6b02fd4df39a6d3c2c83ce482752961ec119c4f21a21b6',
        "files": {
            'bench_scaling.csv':
                '79cf1c958924415d38bf0d42e5654a3ca464ed16c9bfa6ea182b68adda886c7f',
        },
    },
    'bench_mechanism_ablation': {
        "stdout": 'c67a8651e504057bfb1892b769f84ea0cd6d44079a58103e38137a4ccc4b792d',
        "files": {
            'bench_mechanism_ablation.csv':
                'c8c70cec8d09bdcd2cd39b55753b2a7e045807abb9725e5aebf9cf78a43bff55',
        },
    },
    'bench_chunk_granularity': {
        "stdout": '22b4ca834d6696b2482ed497da6512f324c194ffa6138b3edecc18e7332bdcca',
        "files": {
            'bench_chunk_granularity.csv':
                '2bd05038350c858f377c89b4e3fe94fa96d0d9ca67481dcd64436a25719c90f9',
        },
    },
    'bench_platform_sensitivity': {
        "stdout": '867affcbe74505cac07d314f8afe56d1ccd189dd67c09929bfc021b29c27197a',
        "files": {
            'bench_platform_sensitivity.csv':
                '9795a6b54941d8047535dd5453a75549002985d53405ed93cac12ffdf442ad10',
        },
    },
    'bench_pipeline_fig1': {
        "stdout": '91d456ba528038e11921f1441c074ad7694cfb3b921ea358bb041bbef28edfb0',
        "files": {
            'fig1_original.pcf':
                'a299235f5e3c449332907a3edfdff115e8437e487ce9972e443c3456e051efd1',
            'fig1_original.prv':
                '62521ca8c5b46bb0663ee1736eece7897c93fda63acf417e0983f15acabdabd2',
            'fig1_original.trace':
                '85199b6915491a833c56c9f014e3352cffd750cac0e3f6428c2bd51df2866b4f',
            'fig1_overlap.meta':
                '7cdc559bdbcc429b2ef77b7a04e13d586309875ead584b6caa15c82526e1991c',
            'fig1_overlapped.pcf':
                'a299235f5e3c449332907a3edfdff115e8437e487ce9972e443c3456e051efd1',
            'fig1_overlapped.prv':
                '1f2003e64b69240af55ed2e24de66a1eb5517bfa4d3eec2cc74c4c84969e61e0',
        },
    },
    'bench_real_vs_ideal': {
        "stdout": 'dec1355bc115a962ef168d367560ba7fed3459ddbd683bdec5af2455b5297b39',
        "files": {
            'bench_real_vs_ideal.csv':
                'de052292c2673db58ca26ba7ef3bb439ba83255bea6ed9325e475a8eba791e14',
        },
    },
    'bench_bandwidth_relaxation': {
        "stdout": 'f05444059bb73a3b020d733b4fc568a0ac0fa7edc44fe5768c783d1782ccd770',
        "files": {
            'bench_bandwidth_relaxation.csv':
                'a4236d6bea0c7ded92e8db0f7b319053b29b1848608c467a92ceb054b14b5561',
        },
    },
    'quickstart': {
        "stdout": '8b60eb2c7581274daeaab20b1ab7c1ce213447ce0cb45394d19a4ac9460103c0',
        "files": {
        },
    },
    'timeline_gallery': {
        "stdout": '80d9c0c95678ed8953314fcccf6cf45828a82031be9e15cea74b2d88f43d416a',
        "files": {
            'gallery_original.pcf':
                'a299235f5e3c449332907a3edfdff115e8437e487ce9972e443c3456e051efd1',
            'gallery_original.prv':
                '62521ca8c5b46bb0663ee1736eece7897c93fda63acf417e0983f15acabdabd2',
            'gallery_overlap-ideal.pcf':
                'a299235f5e3c449332907a3edfdff115e8437e487ce9972e443c3456e051efd1',
            'gallery_overlap-ideal.prv':
                '1f2003e64b69240af55ed2e24de66a1eb5517bfa4d3eec2cc74c4c84969e61e0',
            'gallery_overlap-real.pcf':
                'a299235f5e3c449332907a3edfdff115e8437e487ce9972e443c3456e051efd1',
            'gallery_overlap-real.prv':
                'c021fdca0ad9c826986189ea923f585eef9e8ff8a1fe69e824e38f6a369a591c',
        },
    },
    'timeline_gallery --app sweep3d --bandwidth 64': {
        "stdout": 'dcd7e144a2c708ff2ebba30338aaad4e294cba4ddd2bb763ed8e8df4558bf419',
        "files": {
            'gallery_original.pcf':
                'a299235f5e3c449332907a3edfdff115e8437e487ce9972e443c3456e051efd1',
            'gallery_original.prv':
                '86f57c9ba89598bd63ce4f010af68a806ea790a1afcdd3ffba8fcaeb36848c5c',
            'gallery_overlap-ideal.pcf':
                'a299235f5e3c449332907a3edfdff115e8437e487ce9972e443c3456e051efd1',
            'gallery_overlap-ideal.prv':
                '681d947be1feeb6958b1fe57371032ee19140a2b116fbc0e7ec1e8e34f401701',
            'gallery_overlap-real.pcf':
                'a299235f5e3c449332907a3edfdff115e8437e487ce9972e443c3456e051efd1',
            'gallery_overlap-real.prv':
                'ee2d7dd0f9607c6bd198b23f1d3bfe0c13bd241598984b90e15606dde370ed92',
        },
    },
    'resilience_study --seeds 4': {
        "stdout": '094719273dcaf69af97e223debcacf5a7a788048f4cc13ea958afd8952e68e1e',
        "files": {
        },
    },
    'topology_study --app nas-cg --csv t.csv': {
        "stdout": 'd50e0ad5b9d949b55073810ad2853b6b45e3883de2dc6bdf7145f14626fe35f4',
        "files": {
            't.csv':
                '6f6b46d2873b6dfb70335bba53f980e4fdda6631b9dd4683694f55d069b4e387',
        },
    },
    'collective_study --per-decade 1 --csv c.csv': {
        "stdout": '19f9078fc0347278918cb290be8b171e0be227384e3cf0951569cf0794922605',
        "files": {
            'c.csv':
                '49fc10b26ec7d613e966e43f3aade456029ad71001e9bab00c2e3965ca2edc18',
        },
    },
    'degradation_study --app nas-bt --per-decade 1 --csv d.csv': {
        "stdout": 'e453abf4880900879d2d05eceba2e6a8589d9bc971514163c7c5692846d38e83',
        "files": {
            'd.csv':
                'dd111a8e80b2c03bf494a2eb317152d1fa682a83fcdb7fd05d23d47f53b55582',
        },
    },
    'generator_study --kind stencil --ranks 16,32,64 --csv g.csv': {
        "stdout": 'ffe94126abaa76441ea8119275cc26ae3594b1363e7ecad7f51ac6d0d9480885',
        "files": {
            'g.csv':
                '261516663b7600832a47a95610525912cb467698c55b3a5649b12634435fda84',
        },
    },
    'generator_study --kind fan-in --ranks 8,16,32 --csv f.csv': {
        "stdout": 'f35bfef170d4cc74dfa252ab1d81aeff1ee9d82ed2ea3d07907b383a0e337a70',
        "files": {
            'f.csv':
                'f3b55cee3a7179368af3f91d830c9470f765081944b42dc23f909d6d0f76ef51',
        },
    },
}


def pin_key(case):
    """The PINS entry of a case: thread counts share one entry."""
    return re.sub(r" --threads \d+$", "", case)


def run_case(binary, args):
    """Run binary in a fresh directory; return (stdout, {file: sha})."""
    with tempfile.TemporaryDirectory(prefix="bench_pins.") as cwd:
        proc = subprocess.run([binary] + args, cwd=cwd,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=600)
        if proc.returncode != 0:
            raise RuntimeError(
                f"{os.path.basename(binary)} {' '.join(args)} exited "
                f"{proc.returncode}:\n{proc.stderr.decode(errors='replace')}")
        files = {}
        for name in sorted(os.listdir(cwd)):
            with open(os.path.join(cwd, name), "rb") as f:
                files[name] = hashlib.sha256(f.read()).hexdigest()
    return THREADS.sub(b"N threads", proc.stdout), files


def paths_by_name(binaries):
    """{binary name: absolute path} for every binary CASES names."""
    paths = {os.path.basename(b): os.path.abspath(b) for b in binaries}
    wanted = {b for _, b, _ in CASES} | {row[1] for row in ERRORS}
    missing = sorted(wanted - paths.keys())
    if missing:
        sys.exit(f"bench_pins: no path given for {', '.join(missing)}")
    return paths


def measure(by_name):
    """{case: (stdout, pin)} for every case in CASES."""
    out = {}
    for case, binary, args in CASES:
        stdout, files = run_case(by_name[binary], args)
        out[case] = (stdout, {
            "stdout": hashlib.sha256(stdout).hexdigest(),
            "files": files})
    return out


def print_table(measured):
    table = {}
    for case, (_, pin) in measured.items():
        if table.setdefault(pin_key(case), pin) != pin:
            sys.exit(f"bench_pins: {case} differs from its other "
                     "thread count")
    print("PINS = {")
    for key, pin in table.items():
        print(f"    {key!r}: {{")
        print(f"        \"stdout\": {pin['stdout']!r},")
        print("        \"files\": {")
        for name, sha in pin["files"].items():
            print(f"            {name!r}:")
            print(f"                {sha!r},")
        print("        },")
        print("    },")
    print("}")


def check(measured):
    moved = 0
    for case, (stdout, pin) in measured.items():
        want = PINS.get(pin_key(case))
        if want is None:
            print(f"MOVED {case}: no pin recorded")
            moved += 1
            continue
        problems = []
        if pin["stdout"] != want["stdout"]:
            problems.append("stdout")
        for name in sorted(want["files"].keys() | pin["files"].keys()):
            if name not in pin["files"]:
                problems.append(f"{name} (not written)")
            elif name not in want["files"]:
                problems.append(f"{name} (not pinned)")
            elif pin["files"][name] != want["files"][name]:
                problems.append(name)
        if problems:
            moved += 1
            print(f"MOVED {case}: {', '.join(problems)}")
            print(stdout.decode(errors="replace"))
        else:
            print(f"ok    {case}")
    if moved:
        print(f"bench_pins: {moved} of {len(measured)} cases moved")
        return 1
    print(f"bench_pins: all {len(measured)} cases match their pins")
    return 0


def check_errors(by_name):
    """Run every ERRORS case; return how many ended wrongly."""
    wrong = 0
    for case, binary, args, message, inputs in ERRORS:
        with tempfile.TemporaryDirectory(prefix="bench_pins.") as cwd:
            for name, text in inputs.items():
                with open(os.path.join(cwd, name), "w") as f:
                    f.write(text)
            proc = subprocess.run([by_name[binary]] + args, cwd=cwd,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=600)
        stderr = proc.stderr.decode(errors="replace")
        problems = []
        if proc.returncode != 1:
            problems.append(f"exit status {proc.returncode}, not 1")
        if stderr.count(message) != 1:
            problems.append(f"message printed {stderr.count(message)} "
                            "times, not once")
        fatal_lines = stderr.count("fatal: ")
        if fatal_lines != 1:
            problems.append(f"{fatal_lines} `fatal:` lines, not one")
        if "terminate called" in stderr:
            problems.append("std::terminate")
        if problems:
            wrong += 1
            print(f"WRONG {case}: {', '.join(problems)}")
            print(stderr)
        else:
            print(f"ok    {case} (exit 1)")
    if wrong:
        print(f"bench_pins: {wrong} of {len(ERRORS)} error cases "
              "ended wrongly")
    return wrong


def main(argv):
    printing = "--print" in argv
    paths = paths_by_name([a for a in argv if a != "--print"])
    measured = measure(paths)
    if printing:
        print_table(measured)
        return 0
    moved = check(measured)
    wrong = check_errors(paths)
    return 1 if moved or wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
