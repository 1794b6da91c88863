"""The CLI's argparse surface: help exits clean, bad flags fail usably.

``tests/integration/test_cli.py`` exercises the subcommand *behaviour*;
this module pins the argparse surface itself — every subcommand answers
``--help`` with exit code 0 and mentions its own flags, and an unknown
flag fails with the conventional argparse exit code 2 plus a usage
message naming the offending flag, so a typo never silently degrades
into a default run.
"""

import contextlib
import io

import pytest

from repro.cli import build_parser, main

SUBCOMMANDS = ("train", "evaluate", "noise", "online", "serve", "stats",
               "generate", "list")

# One representative flag per subcommand that --help must document.
FLAG_IN_HELP = {
    "train": "--epochs",
    "evaluate": "--filter",
    "noise": "--sigmas",
    "online": "--lr",
    "serve": "--checkpoint",
    "stats": "datasets",
    "generate": "--out",
    "list": "-h",
}

# Minimal valid argument lists, so an appended unknown flag is the *only*
# parse error and argparse names it (required-argument errors win
# otherwise).
MINIMAL_ARGS = {
    "train": ["--model", "logcl", "--dataset", "tiny"],
    "evaluate": ["--model", "logcl", "--dataset", "tiny",
                 "--checkpoint", "x.npz"],
    "noise": ["--model", "logcl", "--dataset", "tiny",
              "--checkpoint", "x.npz"],
    "online": ["--model", "logcl", "--dataset", "tiny",
               "--checkpoint", "x.npz"],
    "serve": ["--model", "logcl", "--dataset", "tiny",
              "--checkpoint", "x.npz"],
    "stats": ["tiny"],
    "generate": ["--preset", "tiny", "--out", "out_dir"],
    "list": [],
}


def _run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exit_info:
            code = exit_info.code if exit_info.code is not None else 0
    return code, stdout.getvalue(), stderr.getvalue()


class TestHelp:
    def test_top_level_help_lists_every_subcommand(self):
        code, out, _ = _run(["--help"])
        assert code == 0
        for name in SUBCOMMANDS:
            assert name in out

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_subcommand_help_exits_zero(self, name):
        code, out, _ = _run([name, "--help"])
        assert code == 0
        assert "usage" in out.lower()
        assert FLAG_IN_HELP[name] in out

    def test_parser_builds_fresh_each_call(self):
        # build_parser must not share mutable state across calls.
        assert build_parser() is not build_parser()


class TestBadFlags:
    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_unknown_flag_exits_two_naming_it(self, name):
        code, _, err = _run([name] + MINIMAL_ARGS[name]
                            + ["--no-such-flag"])
        assert code == 2
        assert "usage" in err.lower()
        assert "--no-such-flag" in err

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_missing_required_args_exit_two_with_usage(self, name):
        if not MINIMAL_ARGS[name]:
            pytest.skip(f"{name} has no required arguments")
        code, _, err = _run([name])
        assert code == 2
        assert "usage" in err.lower()
        assert "required" in err or "arguments" in err

    def test_unknown_subcommand_exits_two(self):
        code, _, err = _run(["frobnicate"])
        assert code == 2
        assert "usage" in err.lower()

    def test_missing_subcommand_exits_two(self):
        code, _, err = _run([])
        assert code == 2

    def test_bad_int_value_exits_two_naming_flag(self):
        code, _, err = _run(["train", "--model", "logcl",
                             "--dataset", "tiny", "--epochs", "lots"])
        assert code == 2
        assert "--epochs" in err

    @pytest.mark.parametrize("name", ("train", "evaluate", "noise",
                                      "online"))
    def test_workers_flag_is_gone(self, name):
        # Every protocol has one serial path; there is no worker count.
        code, _, err = _run([name] + MINIMAL_ARGS[name]
                            + ["--workers", "2"])
        assert code == 2
        assert "--workers" in err

    def test_fuse_queries_flag_is_gone(self):
        # The daemon serves each request as its own forward; no fusion.
        code, _, err = _run(["serve"] + MINIMAL_ARGS["serve"]
                            + ["--listen", "127.0.0.1:0", "--fuse-queries"])
        assert code == 2
        assert "--fuse-queries" in err

    @pytest.mark.parametrize("flag", [["--batch-window-ms", "2"],
                                      ["--batch-pending", "16"]],
                             ids=lambda flag: flag[0])
    def test_coalescing_flags_are_gone(self, flag):
        # The daemon runs each request as its own engine job; no window.
        code, _, err = _run(["serve"] + MINIMAL_ARGS["serve"]
                            + ["--listen", "127.0.0.1:0"] + flag)
        assert code == 2
        assert flag[0] in err

    def test_serve_daemon_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--model", "logcl", "--dataset", "tiny",
             "--checkpoint", "x.npz", "--listen", "127.0.0.1:0",
             "--max-queue", "32", "--snapshot", "state.npz"])
        assert args.listen == "127.0.0.1:0"
        assert args.max_queue == 32
        assert args.snapshot == "state.npz"

    def test_serve_defaults_to_stdin_loop(self):
        args = build_parser().parse_args(
            ["serve", "--model", "logcl", "--dataset", "tiny",
             "--checkpoint", "x.npz"])
        assert args.listen is None
        assert args.replicas == 1 and args.store is None

    def test_serve_replica_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--model", "logcl", "--dataset", "tiny",
             "--checkpoint", "x.npz", "--listen", "127.0.0.1:0",
             "--replicas", "4", "--store", "tiny.hst"])
        assert args.replicas == 4
        assert args.store == "tiny.hst"
