import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_tour_runs():
    # the fenced python blocks run as doctests; the closing fence would
    # read as expected output if the whole file went to doctest
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    parser = doctest.DocTestParser()
    for i, block in enumerate(blocks):
        test = parser.get_doctest(block, {}, f"README.md python block {i}", str(README), 0)
        report = []
        result = doctest.DocTestRunner().run(test, out=report.append)
        assert result.attempted > 0
        assert result.failed == 0, "".join(report)
