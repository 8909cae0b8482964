type prepare = [ `At_wedge | `Early ]
type handoff = [ `Speculative | `Blocking ]
type residuals = [ `Resubmit | `Client_retry ]

type t = {
  name : string;
  prepare : prepare;
  handoff : handoff;
  residuals : residuals;
}

let composed =
  {
    name = "composed";
    prepare = `At_wedge;
    handoff = `Speculative;
    residuals = `Resubmit;
  }

let matchmaker =
  {
    name = "matchmaker";
    prepare = `Early;
    handoff = `Speculative;
    residuals = `Resubmit;
  }

let stopworld =
  {
    name = "stopworld";
    prepare = `At_wedge;
    handoff = `Blocking;
    residuals = `Client_retry;
  }
