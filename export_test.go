package sbcrawl

// RaceEnabled is raceEnabled for the external tests (package sbcrawl_test).
const RaceEnabled = raceEnabled
