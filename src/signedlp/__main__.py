import gc

# the imports would otherwise run some 35 collections over objects that live
# for the whole process; entry() freezes them and enables the collector again
gc.disable()

from .cli import entry  # noqa: E402

entry()
