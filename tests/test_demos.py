"""Every demo's stdout is pinned by its sha1 (the same under any hash
seed), so a library change that alters what a demo prints fails here, not
only one that makes a demo exit non-zero.

Demo 05 prints the first trace rows of its ICN run. A control message's
`ctrl` rows are written together when it is sent, each stamped with its
hop's start, so they come in send order: the second hop of the first
request (stamped 1001) comes before the next request's first hop (stamped
0), and demo 05's pin moved when control rows stopped coming in time
order."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

STDOUT_SHA1 = {
    "01_namespace_tour.py": "c42dcc2a66fd06d0721f87926d7fcfdcdc764329",
    "02_rendezvous_matching.py": "1cd017189104c6c8f8bad4fc4efe99e7d6b06555",
    "03_delivery_trees.py": "7f7fcd602257bd1e6185ef05a41edcce75893466",
    "04_bloom_forwarding.py": "c98ec7d6e34bcd0aaaf2a4af1df21738e71cf306",
    "05_ip_over_icn_end_to_end.py": "9eab3fd8ea3db39e4cde3e2679f3f70589afb56b",
    "06_http_multicast_savings.py": "e3fd8d86d0d177045d512ae26d430a26b083e551",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("0*.py")) == sorted(STDOUT_SHA1)


@pytest.mark.parametrize("demo", sorted(STDOUT_SHA1))
def test_demo_stdout_is_pinned(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                            capture_output=True, check=True)
    assert hashlib.sha1(result.stdout).hexdigest() == STDOUT_SHA1[demo]
