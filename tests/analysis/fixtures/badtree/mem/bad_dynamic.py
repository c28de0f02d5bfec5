"""Seeded REPRO004 violations (golden fixture — never imported)."""


def run_snippet(snippet):
    code = compile(snippet, "<fixture>", "exec")  # line 5: compile()
    exec(code, {})  # line 6: exec()


def evaluate(expression):
    return eval(expression)  # line 10: eval()


def thaw(payload):
    import marshal
    return marshal.loads(payload)  # line 15: marshal.loads()
