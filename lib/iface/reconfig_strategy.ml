type transfer = [ `Pull | `Push ]
type handoff = [ `Speculative | `Blocking ]
type residuals = [ `Resubmit | `Client_retry ]

type t = {
  name : string;
  transfer : transfer;
  handoff : handoff;
  residuals : residuals;
}

let composed =
  {
    name = "composed";
    transfer = `Pull;
    handoff = `Speculative;
    residuals = `Resubmit;
  }

let matchmaker =
  {
    name = "matchmaker";
    transfer = `Push;
    handoff = `Speculative;
    residuals = `Resubmit;
  }

let stopworld =
  {
    name = "stopworld";
    transfer = `Pull;
    handoff = `Blocking;
    residuals = `Client_retry;
  }
