package strategy

import (
	"fmt"

	"evogame/internal/game"
)

// This file defines the classic strategies of the repeated Prisoner's
// Dilemma literature, generalised to arbitrary memory depth.  The
// generalisations condition only on the rounds a memory-n player can see;
// for memory-one they reduce to the textbook definitions used in the paper
// (Tables III and V).

// mostRecentRound extracts the 2-bit code of the most recent round from a
// packed state.
func mostRecentRound(state int) (my, opp game.Move) {
	return game.Move((state >> 1) & 1), game.Move(state & 1)
}

// AllC returns the strategy that cooperates in every state.
func AllC(memSteps int) *Pure {
	return NewPure(memSteps)
}

// AllD returns the strategy that defects in every state.
func AllD(memSteps int) *Pure {
	p := NewPure(memSteps)
	for s := 0; s < p.NumStates(); s++ {
		p.SetMove(s, game.Defect)
	}
	return p
}

// TFT returns Tit-For-Tat generalised to memory-n: copy the opponent's move
// from the most recent round.  The initial all-cooperate history makes the
// first move cooperative, as in the paper.
func TFT(memSteps int) *Pure {
	p := NewPure(memSteps)
	for s := 0; s < p.NumStates(); s++ {
		_, opp := mostRecentRound(s)
		p.SetMove(s, opp)
	}
	return p
}

// WSLS returns Win-Stay Lose-Shift generalised to memory-n: repeat your own
// previous move after a "win" (the opponent cooperated, so you received R or
// T) and switch after a "loss" (the opponent defected, so you received S or
// P).  For memory-one this is the [C,D,D,C] strategy of the paper's
// Table V and the Nowak–Sigmund 1993 study reproduced in Figure 2.
func WSLS(memSteps int) *Pure {
	p := NewPure(memSteps)
	for s := 0; s < p.NumStates(); s++ {
		my, opp := mostRecentRound(s)
		if opp == game.Cooperate {
			p.SetMove(s, my)
		} else {
			p.SetMove(s, my.Flip())
		}
	}
	return p
}

// GRIM returns the Grim Trigger strategy generalised to memory-n: defect if
// the opponent defected in any round the player can remember, otherwise
// cooperate.  (A true Grim Trigger never forgives; with a finite memory
// window it forgives once the defection scrolls out of view, which is the
// standard finite-memory approximation.)
func GRIM(memSteps int) *Pure {
	p := NewPure(memSteps)
	for s := 0; s < p.NumStates(); s++ {
		defected := false
		for r := 0; r < memSteps; r++ {
			if (s>>(2*uint(r)))&1 == 1 {
				defected = true
				break
			}
		}
		if defected {
			p.SetMove(s, game.Defect)
		}
	}
	return p
}

// TF2T returns Tit-For-Two-Tats: defect only if the opponent defected in
// both of the two most recent rounds.  It requires memory of at least two
// rounds and returns an error otherwise.
func TF2T(memSteps int) (*Pure, error) {
	if memSteps < 2 {
		return nil, fmt.Errorf("strategy: TF2T requires memory >= 2, got %d", memSteps)
	}
	p := NewPure(memSteps)
	for s := 0; s < p.NumStates(); s++ {
		oppLast := s & 1
		oppPrev := (s >> 2) & 1
		if oppLast == 1 && oppPrev == 1 {
			p.SetMove(s, game.Defect)
		}
	}
	return p, nil
}

// Alternator returns the strategy that plays the opposite of its own
// previous move, producing a C,D,C,D,… sequence against any opponent; it is
// useful as a pathological test strategy.
func Alternator(memSteps int) *Pure {
	p := NewPure(memSteps)
	for s := 0; s < p.NumStates(); s++ {
		my, _ := mostRecentRound(s)
		p.SetMove(s, my.Flip())
	}
	return p
}

// ByName builds the named classic strategy ("allc", "alld", "tft", "wsls",
// "grim", "tf2t" or "alternator") for the given memory depth.
func ByName(name string, memSteps int) (*Pure, error) {
	if err := checkMemory(memSteps); err != nil {
		return nil, err
	}
	switch name {
	case "allc":
		return AllC(memSteps), nil
	case "alld":
		return AllD(memSteps), nil
	case "tft":
		return TFT(memSteps), nil
	case "wsls":
		return WSLS(memSteps), nil
	case "grim":
		return GRIM(memSteps), nil
	case "tf2t":
		return TF2T(memSteps)
	case "alternator":
		return Alternator(memSteps), nil
	}
	return nil, fmt.Errorf("strategy: unknown strategy %q", name)
}
