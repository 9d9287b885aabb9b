from __future__ import annotations

from pathlib import Path

import pytest

from vopol import load_model, parse_policy_document

FIXTURES = Path(__file__).parent / "fixtures"

VISITUS = """\
vo VisitUs
param n 3
member Hotel kind=Partner cap beds=10 cost=5
candidate newHotel kind=Partner cap beds=8 cost=4
task BookFlight type=Atomic
task HotelProv type=Atomic requires beds=3
edge BookFlight HotelProv
"""

MOREBEDS = """\
policy MoreBeds
  appliesTo HotelProv
  when task_entry()
  if not has_capacity(Hotel, beds, n)
  do change_type(HotelProv, Replicable, competition)
     andthen add_member(newHotel)
     andthen assign_duty(newHotel, beds)
"""

# tokens that the one integer rule of every input refuses although int()
# takes all but the last: an underscore, a plus sign, a non-ASCII digit and
# more than 640 digits, the last past Python's default int-string limit
NOT_INTEGERS = [
    pytest.param(token, id=name)
    for name, token in [
        ("underscore", "1_000"),
        ("plus", "+7"),
        ("arabic-indic", "\u0663"),
        ("641-digits", "1" * 641),
        ("5000-digits", "1" * 5000),
    ]
]
WIDEST = "9" * 640


@pytest.fixture
def visitus():
    return load_model(VISITUS)


@pytest.fixture
def morebeds():
    return parse_policy_document(MOREBEDS)


@pytest.fixture(scope="session")
def naive_differential(tmp_path_factory):
    """One run of the engine against the naive engine, shared by the tests
    that assert its floors (see ``test_dispatch_differential.py``)."""
    from test_dispatch_differential import run_naive_differential

    return run_naive_differential(tmp_path_factory.mktemp("naive"))
