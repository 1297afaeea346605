"""Check a tier-1 JUnit XML report: the failed tests must be exactly
acceptance criteria 2, 3 and 6, which fail by design (the published
quality figures do not reproduce from the printed tables), and no test
may be skipped.

    python3 .github/check_tier1.py tier1.xml
"""

import sys
import xml.etree.ElementTree as ET

EXPECTED_FAILURES = {
    "tests.test_acceptance::test_criterion_02_case1_column_quality",
    "tests.test_acceptance::test_criterion_03_case1_row_quality",
    "tests.test_acceptance::test_criterion_06_case3",
}

cases = list(ET.parse(sys.argv[1]).getroot().iter("testcase"))
failed = {f"{c.get('classname')}::{c.get('name')}" for c in cases
          if c.find("failure") is not None or c.find("error") is not None}
skipped = {f"{c.get('classname')}::{c.get('name')}" for c in cases if c.find("skipped") is not None}
problems = [f"unexpected failure: {t}" for t in sorted(failed - EXPECTED_FAILURES)]
problems += [f"expected failure passed: {t}" for t in sorted(EXPECTED_FAILURES - failed)]
problems += [f"skipped: {t}" for t in sorted(skipped)]
print(f"{len(cases)} tests, {len(failed)} failed, {len(skipped)} skipped")
for line in problems:
    print(line)
sys.exit(1 if problems or not cases else 0)
