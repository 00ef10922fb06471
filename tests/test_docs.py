"""The reference docs name things that exist.

Three tables rot whenever code is deleted or renamed: the item column
of ``docs/API.md``, and the ``appctl`` commands and ``python -m repro``
flags of ``docs/OBSERVABILITY.md``.  Each is checked against the code.
"""

import importlib
import os
import re

from repro.cli import build_parser
from repro.vswitch.appctl import AppCtl
from repro.vswitch.vswitchd import VSwitchd

DOCS = os.path.join(os.path.dirname(__file__), os.pardir, "docs")

SECTION = re.compile(r"^## (repro\.\S+(?: / repro\.\S+)*)")
CODE = re.compile(r"`([^`]+)`")
NAME = r"[A-Za-z_]\w*"
# `mod.Name / Other`, `mod.sub.fn(args)`, `mod.*`, a bare `module`.
ITEM = re.compile(r"^(?:%s\.)*(?:%s|\*)(?:\(.*\))?$" % (NAME, NAME))
# Prose sections list bare `Name` / `Name/Other` spans.
BARE = re.compile(r"^%s(?: ?/ ?%s)*$" % (NAME, NAME))


def read(name):
    with open(os.path.join(DOCS, name)) as handle:
        return handle.read()


def api_items():
    """(line number, section packages, dotted item) per documented name.

    A table row's first cell is read left to right: ``mod.Name`` sets
    the module, a following bare ``Other`` is looked up in the same
    one.  Outside tables, bare backticked names belong to the section's
    packages themselves.
    """
    items = []
    packages = []
    for number, line in enumerate(read("API.md").splitlines(), 1):
        heading = SECTION.match(line)
        if heading:
            packages = heading.group(1).split(" / ")
            continue
        if line.startswith("## "):
            packages = []
        if not packages or line.startswith(("|---", "| item")):
            continue
        if line.startswith("|"):
            module = None
            for span in CODE.findall(line.split("|")[1]):
                for token in re.split(r"\s*/\s*", span):
                    token = token.strip()
                    if not ITEM.match(token):
                        continue
                    token = re.sub(r"\(.*\)$", "", token)
                    if "." in token:
                        module, _, token = token.rpartition(".")
                    elif module is None:
                        module, token = token, "*"
                    items.append((number, packages, module, token))
        else:
            for span in CODE.findall(line):
                if BARE.match(span):
                    for token in re.split(r"\s*/\s*", span):
                        items.append((number, packages, None, token))
    return items


def resolve(packages, module, name):
    """Import ``module`` under one of ``packages`` (or under ``repro``)
    and return whether it has ``name``."""
    if module is None:
        candidates = packages
    else:
        candidates = ["%s.%s" % (package, module) for package in packages]
        candidates.append("repro.%s" % module)
    for candidate in candidates:
        try:
            found = importlib.import_module(candidate)
        except ImportError:
            continue
        if name == "*" or hasattr(found, name):
            return True
    return False


class TestApiReference:
    def test_the_parser_sees_the_tables(self):
        items = api_items()
        assert len(items) > 150
        assert any(module == "vswitchd" and name == "VSwitchd"
                   for _n, _p, module, name in items)
        assert any(module is None and name == "ChainExperiment"
                   for _n, _p, module, name in items)

    def test_every_documented_name_imports(self):
        missing = [
            "API.md:%d `%s` not found under %s"
            % (number, name if module is None
               else "%s.%s" % (module, name), " / ".join(packages))
            for number, packages, module, name in api_items()
            if not resolve(packages, module, name)
        ]
        assert not missing, "\n".join(missing)


def observability_rows():
    appctl, flags = [], []
    for span in CODE.findall(read("OBSERVABILITY.md")):
        words = span.split()
        if words[0] == "appctl" and len(words) > 1:
            appctl.append(words[1])
        elif words[:3] == ["python", "-m", "repro"]:
            flags.extend(re.findall(r"--[a-z][a-z-]*", span))
    return appctl, flags


class TestObservabilityReference:
    def test_every_appctl_command_dispatches(self):
        appctl, _flags = observability_rows()
        assert len(appctl) >= 10
        ctl = AppCtl(VSwitchd())
        unknown = [command for command in appctl
                   if ctl.run(command).startswith("unknown command")]
        assert not unknown

    def test_every_cli_flag_parses(self):
        _appctl, flags = observability_rows()
        assert flags
        parser = build_parser()

        def parses(flag):
            for argv in (["latency", flag], ["latency", flag, "1"]):
                try:
                    parser.parse_args(argv)
                    return True
                except SystemExit:
                    pass
            return False

        assert not [flag for flag in flags if not parses(flag)]
