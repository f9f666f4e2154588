"""Run `python -m hadamard_powers.cli ARGS` within a time limit and a bound
on the child's peak resident set size, as the CI's large-input steps do:

    python tests/bounded_cli.py --timeout 60 --peak-mb 515 \
        [--stdout LINE ...] -- hset grid.edges --format json

Each --stdout gives one expected line of output, in order; with none, the
output is printed but not compared. Exits 1, saying why, when the command
fails or overruns, when its output is not the expected lines, or when its
peak RSS reaches the bound.
"""

import argparse
import resource
import subprocess
import sys


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--timeout", type=float, required=True, help="seconds")
    parser.add_argument("--peak-mb", type=float, required=True,
                        help="bound on the child's peak RSS, in MB (2^20 bytes)")
    parser.add_argument("--stdout", action="append", metavar="LINE",
                        help="one expected line of output; repeat for each line")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, metavar="-- ARGS")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    try:
        out = subprocess.run([sys.executable, "-m", "hadamard_powers.cli", *cli_args],
                             check=True, timeout=args.timeout, stdout=subprocess.PIPE,
                             text=True).stdout
    except subprocess.CalledProcessError as exc:
        sys.exit(f"exit status {exc.returncode}: {' '.join(cli_args)}")
    except subprocess.TimeoutExpired:
        sys.exit(f"no exit within {args.timeout:g} s: {' '.join(cli_args)}")
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(out, f"peak RSS {peak:.0f} MB", sep="")
    if args.stdout is not None and out != "".join(line + "\n" for line in args.stdout):
        sys.exit(f"output {out!r} is not the expected {args.stdout!r}")
    if peak >= args.peak_mb:
        sys.exit(f"peak RSS {peak:.0f} MB reaches the {args.peak_mb:g} MB bound")


if __name__ == "__main__":
    main()
