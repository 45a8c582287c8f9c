"""``python -m repro serve`` argument and bind error paths.

Only failure paths run here — a successful ``serve`` blocks forever,
and the daemon behind it is covered in-process by test_daemon.py.
"""

import socket

import pytest

from repro.__main__ import main


def run_cli(*argv):
    return main(list(argv))


def test_port_out_of_range_exits_2(capsys):
    assert run_cli("serve", "--port", "70000") == 2
    assert "--port must be in 0..65535" in capsys.readouterr().err


def test_negative_port_exits_2(capsys):
    assert run_cli("serve", "--port", "-1") == 2
    assert "--port must be in 0..65535" in capsys.readouterr().err


def test_zero_workers_exits_2(capsys):
    assert run_cli("serve", "--workers", "0", "--port", "0") == 2
    assert "workers must be >= 1" in capsys.readouterr().err


def test_zero_queue_capacity_exits_2(capsys):
    assert run_cli("serve", "--queue-capacity", "0", "--port", "0") == 2
    assert "queue_capacity must be >= 1" in capsys.readouterr().err


def test_batch_window_flag_is_rejected(capsys):
    # Batches form while the dispatcher is busy; there is no pause to
    # set.  (An invalid value, so a returning flag fails fast instead
    # of starting a daemon.)
    with pytest.raises(SystemExit) as excinfo:
        run_cli("serve", "--batch-window", "-0.1", "--port", "0")
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --batch-window" in (
        capsys.readouterr().err
    )


def test_negative_default_timeout_exits_2(capsys):
    assert run_cli("serve", "--default-timeout", "-5", "--port", "0") == 2
    assert "default_timeout_seconds must be >= 0" in capsys.readouterr().err


def test_occupied_port_exits_2(capsys):
    blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        assert run_cli("serve", "--port", str(port)) == 2
        assert "cannot bind" in capsys.readouterr().err
    finally:
        blocker.close()
