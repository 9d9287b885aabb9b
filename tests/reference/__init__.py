"""The differential oracle: ``naive.py`` holds ``NaiveEngine``, which takes
the slow, obviously right form of every hook the engine optimises, with
the hand-written conflict pair rules and bootstrap allocator beside it.
A new index or cache adds its naive form there, not a new module here."""
