import pytest

from munchkin.ir import parse_program

CHAIN_TEXT = """\
program chain

func main()
block entry:
  call f()
  ret

func f()
block entry:
  call g()
  ret

func g()
block entry:
  ret
"""

# main calls f; nothing calls orphan.
UNREACHABLE_TEXT = """\
program p

func main()
block entry:
  call f()
  ret

func f()
block entry:
  ret

func orphan()
block entry:
  ret
"""


@pytest.fixture
def chain_program():
    """main calls f calls g, one block each."""
    return parse_program(CHAIN_TEXT)
