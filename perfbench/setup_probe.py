"""Fixed start-up cost of one postmine stage invocation.

Run in a bundle directory with ``src`` on PYTHONPATH: imports the CLI,
loads ``config.json`` and every static input a stage loads (correction
dictionary, language model, lexicon, embeddings, verb inventory), then
exits.  ``run.py`` times it from spawn to exit.
"""

from postmine import cli, connotation, events, textprep

config = cli.load_config("config.json")
textprep.load_correction_dictionary(config.abbreviations, config.wordlist, config.censored)
textprep.load_language_model(config.language_model)
connotation.load_lexicon(config.lexicon)
connotation.load_embeddings(config.embeddings)
if config.verb_inventory is not None:
    events.load_inventory(config.verb_inventory)
else:
    events.bundled_inventory()
